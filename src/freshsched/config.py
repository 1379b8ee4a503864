"""Line-oriented `key = value` experiment configs with `[section]` headers.

Unknown sections and keys are rejected (fail-closed), and every parse error
carries the offending line number. Sections: model, sweep (optional),
policy.<name> (one per policy), sim, output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .model import (
    UNBOUNDED,
    Fcfs,
    JointMN,
    NonFiniteRate,
    NonPositiveRate,
    QueryK,
    UpdateK,
    validate_params,
)
from .simulator import SimConfig


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    pass


ENGINES = ("closed_form", "ctmc", "simulation", "all")
SWEEPABLE_RATES = ("lambda_u", "lambda_q", "mu_u", "mu_q")

_KNOWN_KEYS = {
    "model": {"lambda_u", "lambda_q", "mu_u", "mu_q"},
    "sweep": {"rate", "start", "stop", "step"},
    "sim": {"horizon", "warmup", "replications", "seed"},
    "output": {"csv", "svg"},
    "policy": {"type", "k", "m", "n", "engine"},
}


@dataclass(frozen=True)
class SweepAxis:
    rate: str
    start: float
    stop: float
    step: float

    def points(self) -> List[float]:
        values = []
        value = self.start
        # half-step slack so stop itself survives float accumulation
        while value <= self.stop + self.step * 1e-9:
            values.append(round(value, 12))
            value += self.step
        return values


@dataclass(frozen=True)
class PolicyRun:
    name: str
    spec: "Fcfs | QueryK | UpdateK | JointMN"
    engine: str = "all"


@dataclass(frozen=True)
class ExperimentSpec:
    lambda_u: float
    lambda_q: float
    mu_u: float
    mu_q: float
    policies: Tuple[PolicyRun, ...]
    sim: SimConfig
    sweep: Optional[SweepAxis] = None
    csv_path: Optional[str] = None
    svg_path: Optional[str] = None


def _read_sections(path: str) -> Dict[str, Dict[str, Tuple[str, int]]]:
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                base = "policy" if name.startswith("policy.") else name
                if base not in _KNOWN_KEYS:
                    raise ParseError(path, line_no, f"unknown section [{name}]")
                if base == "policy" and not name[len("policy."):]:
                    raise ParseError(path, line_no, "policy section needs a name")
                if name in sections:
                    raise ParseError(path, line_no, f"duplicate section [{name}]")
                sections[name] = {}
                current = name
                continue
            if "=" not in line:
                raise ParseError(path, line_no, f"expected 'key = value', got {line!r}")
            if current is None:
                raise ParseError(path, line_no, "key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            base = "policy" if current.startswith("policy.") else current
            if key not in _KNOWN_KEYS[base]:
                raise ParseError(path, line_no, f"unknown key {key!r} in [{current}]")
            if key in sections[current]:
                raise ParseError(path, line_no, f"duplicate key {key!r} in [{current}]")
            sections[current][key] = (value, line_no)
    return sections


def _get_float(path, section, key, default=None):
    if key not in section:
        if default is None:
            raise ValidationError(f"{path}: missing required key {key!r}")
        return default
    value, line_no = section[key]
    try:
        return float(value)
    except ValueError:
        raise ParseError(path, line_no, f"{key} = {value!r} is not a number") from None


def _get_int(path, section, key, default=None):
    if key not in section:
        if default is None:
            raise ValidationError(f"{path}: missing required key {key!r}")
        return default
    value, line_no = section[key]
    try:
        return int(value)
    except ValueError:
        raise ParseError(path, line_no, f"{key} = {value!r} is not an integer") from None


def parse_threshold(text: str):
    if text.strip().lower() in ("inf", "infinity", "unbounded"):
        return UNBOUNDED
    return int(text)


def _get_threshold(path, section, key):
    value, line_no = section[key]
    try:
        return parse_threshold(value)
    except ValueError:
        raise ParseError(path, line_no,
                         f"{key} = {value!r} is not an integer or 'inf'") from None


def build_policy(kind: str, k=None, m=None, n=None):
    """The policy of a type name; k, m and n are the thresholds it takes."""
    if kind == "fcfs":
        return Fcfs()
    if kind in ("query-k", "update-k"):
        if k is None:
            raise ValidationError(f"policy {kind} needs k")
        return (QueryK if kind == "query-k" else UpdateK)(k)
    if kind == "joint-mn":
        if m is None or n is None:
            raise ValidationError("policy joint-mn needs m and n")
        return JointMN(m, n)
    raise ValidationError(f"unknown policy type {kind!r}")


def _build_policy(path: str, name: str, section) -> PolicyRun:
    if "type" not in section:
        raise ValidationError(f"{path}: [policy.{name}] needs a 'type'")
    kind = section["type"][0].strip().lower()
    values = {key: _get_threshold(path, section, key)
              for key in ("k", "m", "n") if key in section}
    try:
        spec = build_policy(kind, **values)
    except ValueError as exc:
        raise ValidationError(f"{path}: [policy.{name}]: {exc}") from exc
    engine = section.get("engine", ("all", 0))[0].strip().lower()
    if engine not in ENGINES:
        raise ValidationError(f"{path}: engine {engine!r} not one of {ENGINES}")
    return PolicyRun(name, spec, engine)


def parse_config(path: str) -> ExperimentSpec:
    sections = _read_sections(path)
    if "model" not in sections:
        raise ValidationError(f"{path}: missing [model] section")
    model = sections["model"]
    rates = {key: _get_float(path, model, key) for key in SWEEPABLE_RATES}
    try:
        validate_params(rates["lambda_u"], rates["mu_u"], rates["lambda_q"], rates["mu_q"])
    except (NonPositiveRate, NonFiniteRate) as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    sweep = None
    if "sweep" in sections:
        sec = sections["sweep"]
        if "rate" not in sec:
            raise ValidationError(f"{path}: [sweep] needs 'rate'")
        rate = sec["rate"][0].strip()
        if rate not in SWEEPABLE_RATES:
            raise ValidationError(f"{path}: sweep rate {rate!r} not one of {SWEEPABLE_RATES}")
        sweep = SweepAxis(rate, _get_float(path, sec, "start"),
                          _get_float(path, sec, "stop"), _get_float(path, sec, "step"))
        if sweep.step <= 0:
            raise ValidationError(f"{path}: sweep step must be > 0")
        if sweep.stop < sweep.start:
            raise ValidationError(f"{path}: sweep stop below start")
        if sweep.start <= 0:
            raise ValidationError(f"{path}: sweep start must be > 0 (rates are positive)")

    policies = tuple(_build_policy(path, name[len("policy."):], sec)
                     for name, sec in sections.items() if name.startswith("policy."))
    if not policies:
        raise ValidationError(f"{path}: no [policy.<name>] sections")

    sim_sec = sections.get("sim", {})
    try:
        sim = SimConfig(
            horizon=_get_float(path, sim_sec, "horizon", 20000.0),
            warmup=_get_float(path, sim_sec, "warmup", 0.0),
            replications=_get_int(path, sim_sec, "replications", 10),
            base_seed=_get_int(path, sim_sec, "seed", 12345),
        )
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    out = sections.get("output", {})
    return ExperimentSpec(
        lambda_u=rates["lambda_u"], lambda_q=rates["lambda_q"],
        mu_u=rates["mu_u"], mu_q=rates["mu_q"],
        policies=policies, sim=sim, sweep=sweep,
        csv_path=out.get("csv", (None, 0))[0],
        svg_path=out.get("svg", (None, 0))[0],
    )
