"""Seeded item generators for the benchmark workloads.

An item is one generated input taken through its ``accdm`` commands.  Items
come in rounds, so every run measures the same mix whatever its seed: an
analyze round holds one item of each class in the workload's class list, a
pipeline round one item from each overlap stratum, in a seeded order.  Item
(round r, slot j) draws its numbers from ``default_rng([seed, r, j])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Item:
    kind: str                   # the item's class: timings are grouped by it
    n: int
    # (hidden mode, x, phi): the factor is x*mH + exp(i*pi*phi)*mV
    photons: list[tuple[str, float, float]]
    derived: tuple[float, float] | None     # c = x*a + y*b when present
    check_settings: list[tuple[float, float]]   # where the oracle is compared
    files: dict[str, str] = field(default_factory=dict)
    commands: list[list[str]] = field(default_factory=list)

    @property
    def primitive(self) -> bool:
        return self.derived is None

    @property
    def pipeline(self) -> bool:
        return len(self.commands) > 1


def expression_text(item: Item) -> str:
    lines = [f"# {item.kind}, {item.n} photons"]
    lines += [f"w{k} = exp(i*{phi!r}*pi)" for k, (_, _, phi) in enumerate(item.photons)]
    if item.derived is not None:
        x, y = item.derived
        lines.append(f"c = {x!r}*a + {y!r}*b")
    lines.append("".join(f"({x!r}*{mode}H + w{k}*{mode}V)"
                         for k, (mode, x, _) in enumerate(item.photons)))
    return "\n".join(lines) + "\n"


def _photons(rng: np.random.Generator, modes: list[str]) -> list[tuple[str, float, float]]:
    # |H|/|V| log-uniform in [1/4, 4], relative phase uniform
    return [(mode, float(np.exp(rng.uniform(-math.log(4), math.log(4)))),
             float(rng.uniform(-1.0, 1.0)))
            for mode in modes]


def _check_settings(rng: np.random.Generator, count: int = 3) -> list[tuple[float, float]]:
    return [(float(q), float(h)) for q, h in rng.uniform(0.0, 180.0, size=(count, 2))]


def _overlap_modes(overlap: float) -> tuple[float, float]:
    return overlap, math.sqrt(1.0 - overlap * overlap)


def _hidden_modes(structure: str, n: int) -> list[str]:
    half = (n + 1) // 2
    if structure == "distinct":
        return [f"m{k}" for k in range(n)]
    if structure == "two-groups":
        return ["a"] * half + ["b"] * (n - half)
    if structure == "three-groups":
        return [("a", "b", "c")[k % 3] for k in range(n)]
    if structure == "derived":
        return ["a"] * half + ["c"] * (n - half)
    raise ValueError(f"unknown hidden-mode structure {structure!r}")


def _analyze_item(params: dict, cls: list, rng: np.random.Generator) -> Item:
    n, structure = cls
    derived = None
    if structure == "derived":
        derived = _overlap_modes(float(rng.uniform(*params["overlap"])))
    item = Item(f"{structure}-n{n}", n, _photons(rng, _hidden_modes(structure, n)),
                derived, _check_settings(rng))
    item.files["state.expr"] = expression_text(item)
    item.commands = [["analyze", "{d}/state.expr", "--out", "{d}/truth.dm"]]
    return item


def _settings_text(settings: list[tuple[float, float]]) -> str:
    return "qwp_deg,hwp_deg\n" + "".join(f"{q:g},{h:g}\n" for q, h in settings)


def _pipeline_item(params: dict, stratum: int, rng: np.random.Generator) -> Item:
    n, k = params["n"], params["overlap_photons"]
    lo, hi = params["overlap"]
    # stratified over the round so every run sees the whole overlap range
    overlap = lo + (hi - lo) * (stratum + rng.uniform()) / params["strata"]
    item = Item(f"overlap-n{n}-s{stratum}", n,
                _photons(rng, ["a"] * (n - k) + ["c"] * k),
                _overlap_modes(overlap), _check_settings(rng))
    item.files["state.expr"] = expression_text(item)
    if "settings" in params:
        settings = [tuple(s) for s in params["settings"]]
    else:
        angles = np.round(rng.uniform(0.0, 180.0, size=(params["random_settings"], 2)), 2)
        settings = [(float(q), float(h)) for q, h in angles]
    item.files["settings.csv"] = _settings_text(settings)
    sim_seed = int(rng.integers(0, 2 ** 31))
    item.commands = [
        ["analyze", "{d}/state.expr", "--out", "{d}/truth.dm"],
        ["simulate", "{d}/truth.dm", "--settings", "{d}/settings.csv",
         "--shots", f"{params['shots']:g}", "--seed", str(sim_seed),
         "--out", "{d}/counts.csv"],
        ["reconstruct", "{d}/counts.csv", "--out", "{d}/estimate.dm",
         "--reference", "{d}/truth.dm", *params["reconstruct_args"]],
    ]
    return item


def make_round(params: dict, seed: int, round_index: int) -> list[Item]:
    """The items of one round, in a seeded order."""
    analyze = params["kind"] == "analyze"
    size = len(params["round"]) if analyze else params["strata"]
    order = np.random.default_rng([seed, round_index]).permutation(size)
    items = []
    for slot, pos in enumerate(order):
        rng = np.random.default_rng([seed, round_index, slot])
        if analyze:
            items.append(_analyze_item(params, params["round"][pos], rng))
        else:
            items.append(_pipeline_item(params, int(pos), rng))
    return items
