"""Countermeasure arithmetic: decibel chains, required isolation, verdicts.

A transmitter's protection against injected light is the sum of each
component's backward loss at the attack wavelength.  Comparing that total
with the ratio between the maximum power an attacker can deliver and the
largest power shown to leave the laser unaffected gives a resilient or
vulnerable verdict with a margin in dB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "Component",
    "IsolationChain",
    "AttackBudget",
    "VerdictReport",
    "to_dbm",
    "dbm_to_watts",
    "chain_isolation",
    "required_isolation",
    "verdict",
    "load_chain_csv",
    "builtin_chain",
    "BUILTIN_CHAIN_NAME",
]

BUILTIN_CHAIN_NAME = "transmitter_chain_1310nm.csv"


@dataclass(frozen=True)
class Component:
    """One optical element and its backward loss at the attack wavelength."""

    name: str
    loss_db: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("component name must be nonempty")
        if not math.isfinite(self.loss_db):
            raise ValueError(
                f"component {self.name!r}: loss_db must be finite, "
                f"got {self.loss_db}"
            )
        if self.loss_db < 0.0:
            raise ValueError(
                f"component {self.name!r}: loss_db must be nonnegative, "
                f"got {self.loss_db}"
            )


@dataclass(frozen=True)
class IsolationChain:
    """Ordered list of components between the quantum channel and the laser."""

    components: tuple[Component, ...]

    def __init__(self, components):
        object.__setattr__(self, "components", tuple(components))
        if not self.components:
            raise ValueError("isolation chain must contain at least one component")


@dataclass(frozen=True)
class AttackBudget:
    """Attacker-side power bound versus the demonstrated-safe power level."""

    attack_power_w: float  # most power the attacker can deliver
    safe_power_w: float  # most power with no measurable effect on the laser

    def __post_init__(self):
        for name in ("attack_power_w", "safe_power_w"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.safe_power_w <= 0.0:
            raise ValueError(
                f"safe_power_w must be positive, got {self.safe_power_w}"
            )
        if self.attack_power_w <= self.safe_power_w:
            raise ValueError(
                "attack_power_w must exceed safe_power_w, got "
                f"{self.attack_power_w} <= {self.safe_power_w}"
            )


@dataclass(frozen=True)
class VerdictReport:
    total_db: float
    required_db: float
    margin_db: float
    resilient: bool

    @property
    def verdict(self) -> str:
        return "resilient" if self.resilient else "vulnerable"

    def lines(self) -> list[str]:
        return [
            f"total_db={self.total_db:.10g}",
            f"required_db={self.required_db:.10g}",
            f"margin_db={self.margin_db:.10g}",
            f"verdict={self.verdict}",
        ]

    def as_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def to_dbm(p: float) -> float:
    """Power in watts to dBm."""
    if p <= 0.0:
        raise ValueError(f"power must be positive for a dBm value, got {p}")
    return 10.0 * math.log10(p / 1e-3)


def dbm_to_watts(dbm: float) -> float:
    """Inverse of to_dbm."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


def chain_isolation(chain: IsolationChain) -> float:
    """Total backward isolation of the chain in dB."""
    return sum(c.loss_db for c in chain.components)


def required_isolation(budget: AttackBudget) -> float:
    """Isolation needed to attenuate the attack power to the safe level."""
    return to_dbm(budget.attack_power_w) - to_dbm(budget.safe_power_w)


def verdict(chain: IsolationChain, budget: AttackBudget) -> VerdictReport:
    """Compare installed isolation with the requirement.

    A zero margin counts as vulnerable: equality offers no safety factor.
    """
    total = chain_isolation(chain)
    required = required_isolation(budget)
    margin = total - required
    return VerdictReport(
        total_db=total,
        required_db=required,
        margin_db=margin,
        resilient=margin > 0.0,
    )


def _parse_chain_rows(lines, source: str) -> IsolationChain:
    components = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = next(csv.reader([line]))
        except csv.Error as exc:
            raise ValueError(f"{source}, line {lineno}: {exc}") from exc
        fields = [f.strip() for f in fields]
        if [f.lower() for f in fields] == ["name", "loss_db"]:
            continue  # header row
        if len(fields) != 2:
            raise ValueError(
                f"{source}, line {lineno}: expected 'name,loss_db', got {line!r}"
            )
        name, loss_text = fields
        try:
            loss_db = float(loss_text)
        except ValueError:
            raise ValueError(
                f"{source}, line {lineno}: loss_db is not a number: {loss_text!r}"
            ) from None
        try:
            components.append(Component(name=name, loss_db=loss_db))
        except ValueError as exc:
            raise ValueError(f"{source}, line {lineno}: {exc}") from exc
    if not components:
        raise ValueError(f"{source}: no components found")
    return IsolationChain(components)


def load_chain_csv(path) -> IsolationChain:
    """Read a chain from CSV rows of ``name,loss_db``; '#' lines are comments."""
    with open(path, "r", newline="") as fh:
        return _parse_chain_rows(fh, str(path))


def builtin_chain() -> IsolationChain:
    """The bundled reference transmitter chain measured at 1310 nm."""
    text = (
        resources.files("pumpsim.data").joinpath(BUILTIN_CHAIN_NAME).read_text()
    )
    return _parse_chain_rows(text.splitlines(), BUILTIN_CHAIN_NAME)
