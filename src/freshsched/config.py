"""Line-oriented `key = value` experiment configs with `[section]` headers.

Unknown sections and keys are rejected (fail-closed), and every parse error
carries the offending line number. Sections: model, sweep (optional),
policy.<name> (one per policy), sim, output. The sweep axis is a rate or a
threshold (k, m or n); on a threshold axis every policy section leaves that
threshold out and each point sets it.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .model import (
    POLICY_TYPES,
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


# a policy section's `engine =` value -> the CSV source of its rows
ENGINES = {"closed_form": "analytic", "ctmc": "ctmc", "simulation": "sim", "all": "all"}
SWEEPABLE_RATES = ("lambda_u", "lambda_q", "mu_u", "mu_q")
THRESHOLD_AXES = ("k", "m", "n")
_POLICY_THRESHOLDS = {name: tuple(field.name for field in dataclasses.fields(kind))
                      for name, kind in POLICY_TYPES.items()}

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
        # repeated float addition can land a hair above stop (from 0.05 in
        # steps of 0.05 the 17th value is 0.8500000000000002); the slack of a
        # billionth of a step keeps stop itself on the axis
        while value <= self.stop + self.step * 1e-9:
            values.append(round(value, 12))
            value += self.step
        return values


@dataclass(frozen=True)
class PolicyRun:
    name: str
    spec: "Fcfs | QueryK | UpdateK | JointMN"
    source: str = "all"  # from `experiment.SOURCES`, or "all": each that covers the policy


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


def _get(path, section, key, cast, default=None):
    if key not in section:
        if default is None:
            raise ValidationError(f"{path}: missing required key {key!r}")
        return default
    value, line_no = section[key]
    try:
        return cast(value)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise ParseError(path, line_no, f"{key} = {value!r} is not {noun}") from None


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
    """The policy of a type name; k, m and n are the thresholds it takes, and
    a threshold it does not take must be None."""
    if kind not in POLICY_TYPES:
        raise ValidationError(f"unknown policy type {kind!r}")
    given = {"k": k, "m": m, "n": n}
    takes = _POLICY_THRESHOLDS[kind]
    for key, value in given.items():
        if value is not None and key not in takes:
            raise ValidationError(f"policy {kind} takes no threshold {key}")
    if any(given[key] is None for key in takes):
        raise ValidationError(f"policy {kind} needs {' and '.join(takes)}")
    return POLICY_TYPES[kind](*(given[key] for key in takes))


def _build_policy(path: str, name: str, section,
                  sweep: Optional[SweepAxis]) -> PolicyRun:
    if "type" not in section:
        raise ValidationError(f"{path}: [policy.{name}] needs a 'type'")
    kind = section["type"][0].strip().lower()
    values = {key: _get_threshold(path, section, key)
              for key in THRESHOLD_AXES if key in section}
    if sweep is not None and sweep.rate in THRESHOLD_AXES:
        # the axis sets this threshold at every point; build with the first
        axis = sweep.rate
        if axis in section:
            raise ValidationError(f"{path}: [policy.{name}] sets {axis}, "
                                  f"which the sweep sets at every point")
        if kind in _POLICY_THRESHOLDS and axis not in _POLICY_THRESHOLDS[kind]:
            raise ValidationError(f"{path}: [policy.{name}]: policy {kind} "
                                  f"has no threshold {axis} to sweep")
        values[axis] = int(sweep.start)
    try:
        spec = build_policy(kind, **values)
    except ValueError as exc:
        raise ValidationError(f"{path}: [policy.{name}]: {exc}") from exc
    engine = section.get("engine", ("all", 0))[0].strip().lower()
    if engine not in ENGINES:
        raise ValidationError(f"{path}: engine {engine!r} not one of {tuple(ENGINES)}")
    return PolicyRun(name, spec, ENGINES[engine])


def parse_config(path: str) -> ExperimentSpec:
    sections = _read_sections(path)
    if "model" not in sections:
        raise ValidationError(f"{path}: missing [model] section")
    model = sections["model"]
    rates = {key: _get(path, model, key, float) for key in SWEEPABLE_RATES}
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
        axes = SWEEPABLE_RATES + THRESHOLD_AXES
        if rate not in axes:
            raise ValidationError(f"{path}: sweep rate {rate!r} not one of {axes}")
        sweep = SweepAxis(rate, _get(path, sec, "start", float),
                          _get(path, sec, "stop", float), _get(path, sec, "step", float))
        if not all(map(math.isfinite, (sweep.start, sweep.stop, sweep.step))):
            raise ValidationError(f"{path}: [sweep] start, stop and step must be finite")
        if sweep.step <= 0:
            raise ValidationError(f"{path}: sweep step must be > 0")
        if sweep.stop < sweep.start:
            raise ValidationError(f"{path}: sweep stop below start")
        if rate in THRESHOLD_AXES:
            if not (sweep.start.is_integer() and sweep.step.is_integer() and sweep.start >= 1):
                raise ValidationError(f"{path}: [sweep] start and step of threshold {rate} "
                                      f"must be integers, start >= 1")
        elif sweep.start <= 0:
            raise ValidationError(f"{path}: sweep start must be > 0 (rates are positive)")

    policies = tuple(_build_policy(path, name[len("policy."):], sec, sweep)
                     for name, sec in sections.items() if name.startswith("policy."))
    if not policies:
        raise ValidationError(f"{path}: no [policy.<name>] sections")

    sim_sec = sections.get("sim", {})
    # read outside the try, so that a ParseError is not rewrapped as a ValidationError
    values = (_get(path, sim_sec, "horizon", float, SimConfig.horizon),
              _get(path, sim_sec, "warmup", float, SimConfig.warmup),
              _get(path, sim_sec, "replications", int, SimConfig.replications),
              _get(path, sim_sec, "seed", int, SimConfig.base_seed))
    try:
        sim = SimConfig(*values)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    out = sections.get("output", {})
    if "svg" in out and sweep is None:
        raise ValidationError(f"{path}: [output] svg needs a [sweep] axis to plot along")
    return ExperimentSpec(
        lambda_u=rates["lambda_u"], lambda_q=rates["lambda_q"],
        mu_u=rates["mu_u"], mu_q=rates["mu_q"],
        policies=policies, sim=sim, sweep=sweep,
        csv_path=out.get("csv", (None, 0))[0],
        svg_path=out.get("svg", (None, 0))[0],
    )
