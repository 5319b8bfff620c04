"""Line-oriented run configuration: ``key = value`` pairs with ``#`` comments.

Each command has a fixed schema.  Unknown keys are rejected (typo safety),
missing required keys are reported all at once, and value errors carry the
offending line number.  Numbers must be finite, and simple range constraints
(signs, bounds) are checked here so a bad configuration never reaches the
numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "COMMANDS"]

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    parse: object                 # callable str -> value
    default: object = _REQUIRED   # _REQUIRED, or the default value
    check: object = None          # optional callable value -> error string or None


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(","))


def _positive(value) -> str | None:
    return None if value > 0 else "must be positive"


def _nonnegative(value) -> str | None:
    return None if value >= 0 else "must be nonnegative"


def _count_up_to(limit: int):
    message = f"must be from 1 to {limit}"
    return lambda value: None if 1 <= value <= limit else message


def _one_of(*choices):
    message = f"must be one of {', '.join(choices)}"
    return lambda value: None if value in choices else message


_PHYSICAL = {
    "c": _Key(_parse_float, 1.0, _positive),
    "hbar": _Key(_parse_float, 1.0, _positive),
}

# Frequencies are angular, in rad per time unit; lengths in units of delta.
_ION_KEYS = {
    "eta": _Key(_parse_float, check=_positive),
    "omega1_tilde": _Key(_parse_float, check=_nonnegative),  # kinetic coupling
    "omega1": _Key(_parse_float, check=_nonnegative),        # mass-term splitting
    "omega2_tilde": _Key(_parse_float, check=_nonnegative),  # slope drive
    "delta": _Key(_parse_float, 1.0, _positive),  # motional ground-state spread
    "n_fock": _Key(int, 128, _positive),
    "reduce_ion2": _Key(_parse_bool, True),
}

#: Schema per command: key -> _Key.
COMMANDS: dict[str, dict[str, _Key]] = {
    "sweep-transmission": {
        "spin": _Key(str, "1", _one_of("1", "1/2")),
        "m": _Key(_parse_float, check=_nonnegative),
        "g": _Key(_parse_float, check=_positive),
        "p0": _Key(_parse_float, check=_nonnegative),
        "theta_min": _Key(_parse_float, -1.5),
        "theta_max": _Key(_parse_float, 1.5),
        # a million angles take about 1 s of closed forms
        "theta_points": _Key(int, 181, _count_up_to(10**6)),
        **_PHYSICAL,
    },
    "lz-oracle": {
        "spin": _Key(str, "1", _one_of("1", "1/2")),
        "mtilde_c2": _Key(_parse_float, check=_nonnegative),
        "g": _Key(_parse_float, check=_positive),
        "initial_band": _Key(str, "+", _one_of("+", "0", "-")),
        "endpoint_factor": _Key(_parse_float, 30.0, _positive),
        "dt": _Key(_parse_float, 0.0, _nonnegative),  # 0: automatic step
        **_PHYSICAL,
    },
    "evolve": {
        "p0": _Key(_parse_float),
        "width": _Key(_parse_float, check=_positive),
        "center": _Key(_parse_float, 0.0),
        "m": _Key(_parse_float, check=_nonnegative),
        "g": _Key(_parse_float, check=_nonnegative),
        "spinor": _Key(_parse_float_list, (1.0, 0.0, 0.0)),
        "project_band": _Key(str, "none", _one_of("none", "+", "0", "-")),
        "t_final": _Key(_parse_float, 0.0, _nonnegative),  # 0: 7 x width
        "dt": _Key(_parse_float, 0.0, _nonnegative),       # 0: automatic step
        "grid_points": _Key(int, 4096, _positive),
        "grid_length": _Key(_parse_float, 0.0, _nonnegative),  # 0: 40 x width
        "record_stride": _Key(int, 0, _nonnegative),  # 0: max(1, steps // 200)
        "snapshot_path": _Key(str, ""),
        **_PHYSICAL,
    },
    "ion-evolve": {
        **_ION_KEYS,
        "p0": _Key(_parse_float),  # initial momentum in hbar / delta
        "spinor": _Key(_parse_float_list, (1.0, 0.0, 0.0)),
        "project_band": _Key(str, "none", _one_of("none", "+", "0", "-")),
        "t_final": _Key(_parse_float, check=_nonnegative),
        "n_records": _Key(int, 50, _positive),
        "snapshot_path": _Key(str, ""),
    },
    "crosscheck": {
        **_ION_KEYS,
        "p0": _Key(_parse_float, 0.0, _nonnegative),  # 0: 10 hbar / width
        "t_final": _Key(_parse_float, check=_positive),
        "grid_points": _Key(int, 2048, _positive),
    },
}


@dataclass
class RunConfig:
    """A validated command plus its typed parameter map."""

    command: str
    values: dict = field(default_factory=dict)
    output_path: str | None = None


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Parse and validate ``key = value`` configuration text.

    ``command`` may come from the command line; the text itself may also
    carry a ``command`` key (they must agree).  Raises :class:`ConfigError`
    on unknown commands or keys, type or constraint violations (with line
    numbers), and missing required keys (all listed at once).
    """
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    file_command = None
    if "command" in raw:
        file_command, _ = raw.pop("command")
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        raise ConfigError(
            f"config says command = {file_command!r} but {command!r} was requested"
        )
    if command is None:
        raise ConfigError("no command given (set a 'command' key or pass one)")
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; available: {', '.join(sorted(COMMANDS))}"
        )
    schema = COMMANDS[command]

    output_path = None
    if "output" in raw:
        output_path, _ = raw.pop("output")

    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown keys for {command}: {', '.join(unknown)}"
        )

    values = {}
    for key, key_spec in schema.items():
        if key in raw:
            text_value, lineno = raw[key]
            try:
                value = key_spec.parse(text_value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}")
            if key_spec.check is not None:
                problem = key_spec.check(value)
                if problem:
                    raise ConfigError(f"line {lineno}: {key} {problem}")
            values[key] = value
        elif key_spec.default is not _REQUIRED:
            values[key] = key_spec.default

    missing = sorted(key for key, key_spec in schema.items()
                     if key_spec.default is _REQUIRED and key not in values)
    if missing:
        raise ConfigError(
            f"missing required keys for {command}: {', '.join(missing)}"
        )
    return RunConfig(command, values, output_path)
