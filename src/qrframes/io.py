"""JSON encoders and decoders for the file formats the CLI consumes.

Formats:
  group     {"order": n, "cayley": [[...]], "labels": [...]?}
  operator  {"dim": n, "re": [[...]], "im": [[...]]}         (row major)
  frame     {"group": <group|{"builtin": name}|{"file": path}>,
             "rep": "left_regular"|"left_right"|{"matrices": [<operator>...]},
             "povm": "canonical"|{"space": "group"|{"coset_subgroup": [...]},
                                  "effects": [<operator>...]}}
  scenario  {"group": ..., "frames": [<frame>...],
             "system": {"rep": ..., "dim": n}?}

Decoders validate shapes and reject ragged arrays.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .builtins import builtin_group
from .framechange import MultiFrameScenario
from .groups import CosetSpace, FiniteGroup, GroupError, Subgroup
from .operators import as_operator
from .quantum import (
    CosetSampleSpace,
    Frame,
    GroupSpace,
    POVM,
    UnitaryRep,
    canonical_pvm,
    classify_frame,
    left_regular_rep,
    left_right_rep,
)


class FormatError(ValueError):
    """Raised when a JSON document does not match its schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _rect(rows, what: str) -> list:
    _require(isinstance(rows, list) and rows, f"{what} must be a non-empty list of rows")
    width = None
    for r in rows:
        _require(isinstance(r, list), f"{what} rows must be lists")
        if width is None:
            width = len(r)
        _require(len(r) == width, f"{what} is ragged")
    return rows


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def group_to_json(group: FiniteGroup) -> dict:
    doc = {"order": group.order, "name": group.name, "cayley": group.cayley.tolist()}
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def group_from_json(doc: dict) -> FiniteGroup:
    _require(isinstance(doc, dict), "group document must be an object")
    _require("cayley" in doc, "group document needs a 'cayley' table")
    rows = _rect(doc["cayley"], "cayley")
    if "order" in doc:
        _require(int(doc["order"]) == len(rows), "declared order does not match the table")
    try:
        return FiniteGroup(rows, labels=doc.get("labels"), name=doc.get("name"))
    except GroupError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def operator_to_json(a: np.ndarray) -> dict:
    a = as_operator(a)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def operator_from_json(doc: dict) -> np.ndarray:
    _require(isinstance(doc, dict), "operator document must be an object")
    _require("re" in doc and "im" in doc, "operator document needs 're' and 'im'")
    re = _rect(doc["re"], "re")
    im = _rect(doc["im"], "im")
    _require(len(re) == len(im) and len(re[0]) == len(im[0]), "'re' and 'im' shapes differ")
    _require(len(re) == len(re[0]), "operator matrix must be square")
    if "dim" in doc:
        _require(int(doc["dim"]) == len(re), "declared dim does not match the matrix")
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def resolve_group(ref, base: Optional[Path] = None) -> FiniteGroup:
    """Group from an inline document, {"builtin": name}, {"file": path}, or a
    'builtin:name' / path string."""
    if isinstance(ref, FiniteGroup):
        return ref
    if isinstance(ref, str):
        if ref.startswith("builtin:"):
            return builtin_group(ref.split(":", 1)[1])
        return resolve_group(load_json(Path(ref)), base)
    _require(isinstance(ref, dict), "group reference must be an object or string")
    if "builtin" in ref:
        return builtin_group(ref["builtin"])
    if "file" in ref:
        path = Path(ref["file"])
        if base is not None and not path.is_absolute():
            path = base / path
        return group_from_json(load_json(path))
    return group_from_json(ref)


def rep_from_json(group: FiniteGroup, doc) -> UnitaryRep:
    if doc == "left_regular":
        return left_regular_rep(group)
    if doc == "left_right":
        return left_right_rep(group)
    _require(isinstance(doc, dict) and "matrices" in doc,
             "rep must be 'left_regular', 'left_right', or {'matrices': [...]}")
    mats = [operator_from_json(m) for m in doc["matrices"]]
    try:
        return UnitaryRep(group, mats)
    except ValueError as exc:
        raise FormatError(f"invalid representation: {exc}") from exc


def povm_from_json(group: FiniteGroup, rep: UnitaryRep, doc) -> POVM:
    if doc == "canonical":
        return canonical_pvm(rep)
    _require(isinstance(doc, dict) and "effects" in doc,
             "povm must be 'canonical' or {'space': ..., 'effects': [...]}")
    effects = [operator_from_json(e) for e in doc["effects"]]
    space_doc = doc.get("space", "group")
    if space_doc == "group":
        space = GroupSpace(group)
    else:
        _require(isinstance(space_doc, dict) and "coset_subgroup" in space_doc,
                 "povm space must be 'group' or {'coset_subgroup': [...]}")
        sub = Subgroup(group, space_doc["coset_subgroup"])
        space = CosetSampleSpace(CosetSpace(group, sub))
    try:
        return POVM(space, effects)
    except ValueError as exc:
        raise FormatError(f"invalid POVM: {exc}") from exc


def frame_from_json(doc: dict, group: Optional[FiniteGroup] = None,
                    base: Optional[Path] = None) -> Frame:
    _require(isinstance(doc, dict), "frame document must be an object")
    if group is None:
        _require("group" in doc, "frame document needs a 'group'")
        group = resolve_group(doc["group"], base)
    rep = rep_from_json(group, doc.get("rep", "left_regular"))
    povm = povm_from_json(group, rep, doc.get("povm", "canonical"))
    try:
        return classify_frame(rep, povm)
    except ValueError as exc:
        raise FormatError(f"invalid frame: {exc}") from exc


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario_from_json(doc: dict, base: Optional[Path] = None) -> MultiFrameScenario:
    _require(isinstance(doc, dict), "scenario document must be an object")
    _require("frames" in doc and isinstance(doc["frames"], list) and doc["frames"],
             "scenario needs a non-empty 'frames' list")
    group = resolve_group(doc["group"], base) if "group" in doc else None
    frames = []
    for fdoc in doc["frames"]:
        frames.append(frame_from_json(fdoc, group=group, base=base))
        group = frames[0].group
    system_rep = None
    if "system" in doc and doc["system"] not in (None, "none"):
        sys_doc = doc["system"]
        _require(isinstance(sys_doc, dict) and "rep" in sys_doc,
                 "scenario 'system' needs a 'rep'")
        system_rep = rep_from_json(group, sys_doc["rep"])
        if "dim" in sys_doc:
            _require(int(sys_doc["dim"]) == system_rep.dim,
                     "declared system dim does not match its representation")
    return MultiFrameScenario(frames, system_rep)


def load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_json(doc, path: Union[str, Path]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
