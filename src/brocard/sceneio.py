"""Exact JSON persistence for scenes and verification reports.

Rationals serialize as canonical ``"p/q"`` strings, never as floating
point JSON numbers, so files are lossless and byte-deterministic.  The
parser accepts only the text ``rational_to_str`` writes (lowest terms,
positive denominator, no sign on zero, no leading zeros, spaces or
underscores), only JSON booleans as flags, an object as provenance, no
key it does not know outside the free-form provenance and no non-integer
JSON number anywhere: round trips are the identity on both sides.  It
parses each rational once, to its lowest-terms integer pair, and builds
points and gamma from the pairs (``geom._from_ratios``), with no
``Fraction``.

A scene's digest is the sha256 of ``Scene.canonical_text``, the compact
sorted-key JSON of ``scene_to_dict``: one template, ``_TEXT_TEMPLATE``,
filled with the scene's rational strings and flags.  The reader fills it
with the strings it has just checked and stores the text on the scene, so
the digest of a scene read hashes the text read.

Scene and report files come from one canonical encoder, ``_encode``,
whose output equals ``json.dumps(document, sort_keys=True, indent=2)`` plus
a newline: keys sorted, two-space indent, ASCII with ``ensure_ascii``
escapes.  It accepts dicts with string keys, lists, tuples, strings, ints,
booleans and None, and raises ``TypeError`` on anything else.

Report files deliberately omit wall-clock timings; their bytes are a pure
function of the input and the tool version.  A report encodes each distinct
result object once: ``_encode`` formats a block the first time the writer
meets the result, keyed by its identity, and every later occurrence is that
text again, so the bytes are those of encoding every block in place.  Every
PASS result is one shared value (``checks._run``), so an all-PASS report of
100 scenes formats 18 blocks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Any, Dict, List, NoReturn, Optional, Sequence, Tuple

from . import __version__
from .geom import Circle, Point, _from_ratios
from .scene import Scene

if TYPE_CHECKING:  # checks imports this module for scene_digest
    from .checks import CheckResult, SuiteReport

SCENE_FORMAT = "brocard-scenes/1"
REPORT_FORMAT = "brocard-report/1"

# What rational_to_str writes: an optional minus on a nonzero numerator
# without leading zeros, then a positive denominator.
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


class SceneFormatError(ValueError):
    """The file is not a well-formed scene document."""


def rational_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    return Fraction(*_ratio_from_str(text))


def _ratio_from_str(text: str) -> Tuple[int, int]:
    """The lowest-terms pair (n, d), d > 0, of the canonical ``"p/q"`` text;
    any other text raises ``SceneFormatError``."""
    if not isinstance(text, str):
        raise SceneFormatError(f"rational must be a string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SceneFormatError(f"malformed rational {text!r}: expected canonical p/q with q > 0")
    try:
        num, den = int(match[1]), int(match[2])
    except ValueError as exc:  # more digits than int() converts
        raise SceneFormatError(f"rational too long: {exc}") from exc
    if gcd(num, den) != 1:
        raise SceneFormatError(f"rational {text!r} is not in lowest terms")
    return num, den


def _stored_to_json(h: Tuple[int, ...]) -> List[str]:
    """The entries of a stored tuple over its positive last entry, as the
    strings ``rational_to_str`` writes for them."""
    w = h[-1]
    out = []
    for n in h[:-1]:
        g = gcd(n, w)
        out.append(f"{n // g}/{w // g}")
    return out


def _point_from_json(data: Any, where: str) -> Point:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise SceneFormatError(f"{where}: point must be a two-element array")
    return _from_ratios(Point, _ratio_from_str(data[0]), _ratio_from_str(data[1]))


_POINT_FIELDS = ("a", "b", "c", "o", "a1", "a2", "b1", "b2", "c1", "c2")
_SCENE_KEYS = frozenset((*_POINT_FIELDS, "gamma", "classical", "strict_segments"))
_DOCUMENT_KEYS = frozenset(("format", "provenance", "scenes"))

#: The keys of a scene object in sorted order, and its compact JSON text,
#: ``json.dumps(scene_to_dict(s), sort_keys=True, separators=(",", ":"))``,
#: with ``%s`` for each rational string and flag, in that order.
_TEXT_KEYS = tuple(sorted(_SCENE_KEYS))
_TEXT_TEMPLATE = "{%s}" % ",".join(
    f'"{key}":'
    + ('["%s","%s"]' if key in _POINT_FIELDS else '{"d":"%s","e":"%s","f":"%s"}' if key == "gamma" else "%s")
    for key in _TEXT_KEYS
)
_FLAG_TEXT = {False: "false", True: "true"}


def _scene_text(data: Dict[str, Any], classical: bool, strict_segments: bool) -> str:
    """``_TEXT_TEMPLATE`` filled with the rational strings of a scene object
    ``data``, all canonical, and with the two flags given."""
    gamma = data["gamma"]
    rest = {
        "gamma": (gamma["d"], gamma["e"], gamma["f"]),
        "classical": (_FLAG_TEXT[classical],),
        "strict_segments": (_FLAG_TEXT[strict_segments],),
    }
    return _TEXT_TEMPLATE % tuple([text for key in _TEXT_KEYS for text in (rest[key] if key in rest else data[key])])


def canonical_text(s: Scene) -> str:
    """The compact sorted-key JSON of ``scene_to_dict(s)``, which
    ``scene_digest`` hashes; ``Scene.canonical_text`` caches it."""
    return _scene_text(scene_to_dict(s), s.classical, s.strict_segments)


def _reject_unknown_keys(data: Dict[str, Any], known: frozenset, where: str) -> None:
    unknown = sorted(k for k in data if k not in known)
    if unknown:
        raise SceneFormatError(f"{where}: unknown keys {', '.join(map(repr, unknown))}")


def scene_to_dict(s: Scene) -> Dict[str, Any]:
    out: Dict[str, Any] = {name: _stored_to_json(getattr(s, name).h) for name in _POINT_FIELDS}
    out["gamma"] = dict(zip("def", _stored_to_json(s.gamma.h)))
    out["classical"] = s.classical
    out["strict_segments"] = s.strict_segments
    return out


def scene_from_dict(data: Any, where: str = "scene") -> Scene:
    if not isinstance(data, dict):
        raise SceneFormatError(f"{where}: expected an object")
    _reject_unknown_keys(data, _SCENE_KEYS, where)
    missing = [k for k in (*_POINT_FIELDS, "gamma") if k not in data]
    if missing:
        raise SceneFormatError(f"{where}: missing fields {', '.join(missing)}")
    gamma = data["gamma"]
    if not isinstance(gamma, dict) or set(gamma) != {"d", "e", "f"}:
        raise SceneFormatError(f"{where}: gamma must carry exactly d, e, f")
    points = {name: _point_from_json(data[name], f"{where}.{name}") for name in _POINT_FIELDS}
    classical = _flag_from_json(data, "classical", where)
    strict_segments = _flag_from_json(data, "strict_segments", where)
    scene = Scene(
        gamma=_from_ratios(Circle, *[_ratio_from_str(gamma[k]) for k in ("d", "e", "f")]),
        classical=classical,
        strict_segments=strict_segments,
        **points,
    )
    # Every rational string read is now known to be canonical, so the
    # scene's text is made of them: its digest turns no integer into text.
    vars(scene)["canonical_text"] = _scene_text(data, classical, strict_segments)
    return scene


def _flag_from_json(data: Dict[str, Any], key: str, where: str) -> bool:
    """A JSON boolean flag; a missing flag is false."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise SceneFormatError(f"{where}.{key} must be true or false, got {value!r}")
    return value


_quote = json.encoder.encode_basestring_ascii


class _Encoded:
    """The text ``_encode`` writes for ``value`` at ``indent``, made once so
    that a value occurring many times in a document is encoded once."""

    __slots__ = ("text", "indent")

    def __init__(self, value: Any, indent: str) -> None:
        out: List[str] = []
        _encode(value, out, indent)
        self.text = "".join(out)
        self.indent = indent


def _encode(value: Any, out: List[str], indent: str) -> None:
    """Append the pieces of ``value`` to ``out``, laid out as
    ``json.dumps(value, sort_keys=True, indent=2)`` lays it out when the
    enclosing line is indented by ``indent``.  Strings and booleans inside
    containers are written in place, without a call per item, and an
    ``_Encoded`` value is written as the text it holds."""
    if type(value) is _Encoded:
        if value.indent != indent:
            raise ValueError(f"text encoded at indent {len(value.indent)} placed at {len(indent)}")
        out.append(value.text)
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        head, sep = "[\n" + inner, ",\n" + inner
        for item in value:
            if type(item) is str:
                out.append(head + _quote(item))
            else:
                out.append(head)
                _encode(item, out, inner)
            head = sep
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        head, sep = "{\n" + inner, ",\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            if type(item) is str:
                out.append(f"{head}{_quote(key)}: {_quote(item)}")
            elif item is True:
                out.append(f"{head}{_quote(key)}: true")
            elif item is False:
                out.append(f"{head}{_quote(key)}: false")
            else:
                out.append(f"{head}{_quote(key)}: ")
                _encode(item, out, inner)
            head = sep
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _canonical_bytes(document: Any) -> bytes:
    """The bytes of ``json.dumps(document, sort_keys=True, indent=2)`` plus a
    newline, from one pass that joins its pieces once.  (The stdlib drops to
    its pure-Python encoder whenever ``indent`` is set.)"""
    out: List[str] = []
    _encode(document, out, "")
    out.append("\n")
    return "".join(out).encode("ascii")


def scene_digest(s: Scene) -> str:
    """The sha256 of ``s.canonical_text``: for a scene read from a file, the
    text of the strings the reader parsed; otherwise built from its stored
    integers once."""
    import hashlib  # here, not at the top: ``brocard generate`` computes no digest

    return hashlib.sha256(s.canonical_text.encode("ascii")).hexdigest()


def scenes_to_document(
    scenes: Sequence[Scene], provenance: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    return {
        "format": SCENE_FORMAT,
        "provenance": provenance or {},
        "scenes": [scene_to_dict(s) for s in scenes],
    }


def scenes_from_document(doc: Any) -> Tuple[List[Scene], Dict[str, Any]]:
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    _reject_unknown_keys(doc, _DOCUMENT_KEYS, "scene document")
    if doc.get("format") != SCENE_FORMAT:
        raise SceneFormatError(f"unsupported scene format {doc.get('format')!r}")
    raw = doc.get("scenes")
    if not isinstance(raw, list) or not raw:
        raise SceneFormatError("scene document carries no scenes")
    scenes = [scene_from_dict(item, f"scenes[{i}]") for i, item in enumerate(raw)]
    prov = doc.get("provenance", {})
    if not isinstance(prov, dict):
        raise SceneFormatError("provenance must be an object")
    return scenes, prov


def write_scene_file(path: str, scenes: Sequence[Scene], provenance: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "wb") as fh:
        fh.write(_canonical_bytes(scenes_to_document(scenes, provenance)))


def _reject_number(text: str) -> NoReturn:
    raise SceneFormatError(f"non-integer number {text}: rationals are written as \"p/q\" strings")


def read_scene_file(path: str) -> Tuple[List[Scene], Dict[str, Any]]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"), parse_float=_reject_number, parse_constant=_reject_number)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a float, too deep or long
        raise SceneFormatError(f"{path}: {exc}") from exc
    return scenes_from_document(doc)


#: The indent of a check block in a report: inside the document, its
#: ``scenes`` list, a scene and the scene's ``checks`` list.
_BLOCK_INDENT = " " * 8


def _check_block(result: CheckResult) -> Dict[str, Any]:
    return {
        "id": result.check_id,
        "status": result.status,
        "assertions": [
            {
                "label": a.label,
                "ok": a.ok,
                "witnesses": [rational_to_str(w) for w in a.witnesses],
            }
            for a in result.assertions
        ],
        "notes": list(result.notes),
    }


def write_report_file(path: str, reports: Sequence[SuiteReport], input_digest: str) -> None:
    """Reports keyed by scene index; timing fields are omitted on purpose so
    the bytes depend only on input and version.  Each distinct result object
    is encoded once per call, keyed by its identity, and its text is written
    wherever it occurs: every PASS result is one shared value
    (``checks._run``), and the reports hold every result alive for the call,
    so no identity is reused within it."""
    blocks: Dict[int, _Encoded] = {}
    scenes = []
    totals = {"pass": 0, "fail": 0, "degenerate": 0}
    for index, report in enumerate(reports):
        checks = []
        for result in report.results:
            block = blocks.get(id(result))
            if block is None:
                block = blocks[id(result)] = _Encoded(_check_block(result), _BLOCK_INDENT)
            checks.append(block)
        counts = report.counts
        scenes.append(
            {
                "index": index,
                "digest": report.scene_digest,
                "checks": checks,
                "counts": {
                    "pass": counts["PASS"],
                    "fail": counts["FAIL"],
                    "degenerate": counts["DEGENERATE"],
                },
            }
        )
        totals["pass"] += counts["PASS"]
        totals["fail"] += counts["FAIL"]
        totals["degenerate"] += counts["DEGENERATE"]
    document = {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "input_digest": input_digest,
        "scenes": scenes,
        "summary": totals,
    }
    with open(path, "wb") as fh:
        fh.write(_canonical_bytes(document))


def file_digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
