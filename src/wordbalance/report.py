"""Deterministic, exact serialization of analysis results.

Reports are plain nested dicts of JSON-native values: integers stay
integers, every non-integer rational is a "p/q" string, and no floats or
timestamps ever appear. Identical inputs therefore serialize to
byte-identical output in all three formats, and every format round-trips
to an equal dict.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

SCHEMA_VERSION = 1

FORMATS = ("json", "csv", "text")


def rational_str(value: Union[int, Fraction]) -> Union[int, str]:
    """Exact JSON-safe encoding: int when integral, else 'p/q'."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def build_report(
    command: str, config: Dict[str, Any], results: Dict[str, Any],
    checks: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned top-level report structure."""
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
    }
    report["checks"] = checks if checks is not None else []
    _validate_tree(report)
    return report


def _validate_tree(node: Any) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
            _validate_tree(v)
    elif isinstance(node, list):
        for v in node:
            _validate_tree(v)
    elif isinstance(node, float):
        raise TypeError("floats are forbidden in reports; use rational_str")
    elif node is not None and not isinstance(node, (str, int, bool)):
        raise TypeError(f"unsupported report value: {node!r}")


def to_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def from_json(text: str) -> Dict[str, Any]:
    return json.loads(text)


def _leaves(node: Any, path: Tuple[Any, ...]) -> Iterable[Tuple[Tuple[Any, ...], Any]]:
    if isinstance(node, dict):
        if not node:
            yield path + ("{}",), None
            return
        for k in sorted(node):
            yield from _leaves(node[k], path + (k,))
    elif isinstance(node, list):
        if not node:
            yield path + ("[]",), None
            return
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    else:
        yield path, node


def to_csv(report: Dict[str, Any]) -> str:
    """Flat two-column encoding: JSON-encoded key path, JSON-encoded value.

    Paths walk sorted dict keys and list indices; empty containers are
    marked so the structure round-trips exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value"])
    for path, value in _leaves(report, ()):
        writer.writerow([json.dumps(list(path)), json.dumps(value)])
    return buf.getvalue()


def from_csv(text: str) -> Dict[str, Any]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["path", "value"]:
        raise ValueError("not a report CSV (missing path,value header)")
    root: Dict[str, Any] = {}
    for raw_path, raw_value in rows[1:]:
        path, value = json.loads(raw_path), json.loads(raw_value)
        if path[-1] in ("{}", "[]"):
            # An empty container; the root's marker leaves no path to walk.
            value = {} if path.pop() == "{}" else []
        node: Any = root
        # Pad a list up to an index, and make a child only where none is.
        for seg, after in zip(path, path[1:] + [None]):
            if isinstance(seg, int):
                node.extend([None] * (seg + 1 - len(node)))
            if after is None:
                node[seg] = value
            elif (node[seg] if isinstance(seg, int) else node.get(seg)) is None:
                node[seg] = [] if isinstance(after, int) else {}
            node = node[seg]
    return root


def to_text(report: Dict[str, Any]) -> str:
    """Human-readable indented rendering with the same exact numbers."""
    lines: List[str] = []
    _render(report, 0, lines)
    return "\n".join(lines) + "\n"


def _render(node: Any, depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        if not node:
            lines.append(f"{pad}(empty)")
        for k in sorted(node):
            v = node[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render(v, depth + 1, lines)
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(node, list):
        if not node:
            lines.append(f"{pad}(none)")
        for i, v in enumerate(node):
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}- [{i}]")
                _render(v, depth + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(node)}")


def _scalar(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_report(report: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")
