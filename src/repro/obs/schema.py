"""Validator for the ``rose-obs/1`` mission observability artifact.

One structural check is the whole contract, so the verdict never
depends on which optional libraries are installed.  Besides the type of
every field, it enforces two cross-field rules: series rows carry
exactly the declared label names, and a histogram row carries
``len(edges) + 1`` bucket counts.
"""

from __future__ import annotations

from typing import Any

from repro.obs.recorder import OBS_FORMAT

_REQUIRED_KEYS = ("format", "label", "config_key", "metrics", "stage_timings")
_KNOWN_KEYS = frozenset(_REQUIRED_KEYS) | {"trace"}


def _is_number(value: Any) -> bool:
    """A JSON number (``bool`` is an ``int`` subclass, not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_number_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _is_trace(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and sorted(value) == ["by_category", "events"]
        and _is_count(value["events"])
        and isinstance(value["by_category"], dict)
        and all(_is_count(v) for v in value["by_category"].values())
    )


def validate_artifact(data: Any) -> list[str]:
    """Validate a parsed ``rose-obs/1`` document; return error strings.

    An empty list means the artifact is valid.
    """
    if not isinstance(data, dict):
        return ["artifact is not a JSON object"]
    errors = [f"missing required key {key!r}" for key in _REQUIRED_KEYS if key not in data]
    if errors:
        return errors
    errors = [f"unknown key {key!r}" for key in sorted(set(data) - _KNOWN_KEYS)]
    if data["format"] != OBS_FORMAT:
        errors.append(f"format is {data['format']!r}, expected {OBS_FORMAT!r}")
    for key in ("label", "config_key"):
        if not isinstance(data[key], str):
            errors.append(f"{key} must be a string")
    if not isinstance(data["stage_timings"], dict) or not all(
        _is_number(v) for v in data["stage_timings"].values()
    ):
        errors.append("stage_timings must map stage names to numbers")
    if "trace" in data and not _is_trace(data["trace"]):
        errors.append("trace must hold exactly events and by_category counts")
    metrics = data["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics must be an object"]
    for name, entry in metrics.items():
        prefix = f"metrics[{name!r}]"
        if not isinstance(entry, dict):
            errors.append(f"{prefix} is not an object")
            continue
        kind = entry.get("kind")
        if kind not in ("counter", "gauge", "histogram"):
            errors.append(f"{prefix}.kind is invalid: {kind!r}")
            continue
        labels = entry.get("labels")
        if not isinstance(labels, list) or not all(isinstance(n, str) for n in labels):
            errors.append(f"{prefix}.labels must be a list of label names")
            continue
        series = entry.get("series")
        if not isinstance(series, list):
            errors.append(f"{prefix}.series must be a list")
            continue
        edges = entry.get("buckets")
        if (kind == "histogram" or edges is not None) and not _is_number_list(edges):
            errors.append(f"{prefix}.buckets must be a list of bucket edges")
            continue
        for i, row in enumerate(series):
            where = f"{prefix}.series[{i}]"
            if not isinstance(row, dict) or not isinstance(row.get("labels"), dict):
                errors.append(f"{where} must be an object with labels")
                continue
            if sorted(row["labels"]) != sorted(labels):
                errors.append(f"{where} labels do not match declared label names")
            if not all(isinstance(v, str) for v in row["labels"].values()):
                errors.append(f"{where} label values must be strings")
            if kind == "histogram":
                counts = row.get("buckets")
                if not _is_number_list(counts) or len(counts) != len(edges) + 1:
                    errors.append(f"{where} must carry len(edges)+1 bucket counts")
                if not _is_count(row.get("count")):
                    errors.append(f"{where}.count must be a non-negative integer")
                if not _is_number(row.get("sum")):
                    errors.append(f"{where}.sum must be a number")
            elif not _is_number(row.get("value")):
                errors.append(f"{where}.value must be a number")
    return errors
