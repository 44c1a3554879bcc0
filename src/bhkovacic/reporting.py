"""Report records and deterministic serialization.

Rationals are serialized as "num/den" strings (plain "num" for integers)
in every machine-readable output; nothing in a report body depends on
time or environment, so identical configurations produce byte-identical
JSON.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Any, List, NamedTuple

from .algebra import Poly, rat_to_str

__all__ = ["CheckRecord", "Report", "jsonable"]


def jsonable(value: Any):
    """Lossless JSON-friendly view: exact rationals become strings.

    A value of a type not listed here raises TypeError: its repr may hold
    an object's address, and a report must not differ between runs.
    """
    if isinstance(value, Fraction):
        return rat_to_str(value)
    if isinstance(value, Poly):
        return [rat_to_str(c) for c in value.coeffs]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # a record
        return jsonable(value._asdict())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"no report form for {type(value).__name__}")


class CheckRecord(NamedTuple):
    """One verification record; ``tag`` names the identity it checks."""

    name: str
    tag: str
    status: str  # "pass" | "fail"
    witness: Any = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Report:
    def __init__(self, tool_version: str, config: dict):
        self.tool_version: str = tool_version
        self.config: dict = config
        self.records: List[CheckRecord] = []

    def add(self, name: str, ok: bool, tag: str, witness: Any = None) -> CheckRecord:
        record = CheckRecord(
            name=name, tag=tag, status="pass" if ok else "fail", witness=witness
        )
        self.records.append(record)
        return record

    @property
    def all_passed(self) -> bool:
        """True when the report holds records and every one passed: a
        report that examined nothing has not passed."""
        return bool(self.records) and all(r.status == "pass" for r in self.records)

    def to_json(self) -> str:
        payload = {
            "tool_version": self.tool_version,
            "config": jsonable(self.config),
            "records": [jsonable(r) for r in self.records],
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("name,tag,status,witness\n")
        for r in self.records:
            witness = json.dumps(jsonable(r.witness)) if r.witness is not None else ""
            witness = witness.replace('"', '""')
            out.write(f'{r.name},{r.tag},{r.status},"{witness}"\n')
        return out.getvalue()

    def to_human(self) -> str:
        lines = []
        for r in self.records:
            lines.append(f"[{r.status.upper():4}] {r.name} ({r.tag})")
        lines.append(
            f"{sum(r.passed for r in self.records)}/{len(self.records)} checks passed"
        )
        return "\n".join(lines)
