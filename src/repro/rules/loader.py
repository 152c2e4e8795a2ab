"""Rule-pack parsing and schema validation.

``load_pack`` reads a JSON pack (TOML is accepted on Python 3.11+,
where the stdlib ships ``tomllib``), validates it against the schema,
and returns a :class:`~repro.rules.model.RulePack`.  Every failure mode
— unreadable file, syntax error, schema violation, dangling kind label
— is reported as typed :class:`PackIssue` entries inside a
:class:`PackError`; the loader never lets a parser traceback escape.

Shipped packs live next to this module under ``packs/``;
``resolve_pack_path`` maps a bare pack name (``ssrf``) onto that
directory and passes filesystem paths through untouched.  The packs of
the named profiles sit in ``packs/profiles/``, which neither
``builtin_pack_names`` nor ``resolve_pack_path`` looks into: they are
reached through ``repro.rules.PROFILES``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..config.vulnerability import ALL_KINDS, InputVector
from .model import PackError, PackIssue, RulePack

#: current pack document schema version
PACK_SCHEMA_VERSION = 1

_SLUG = re.compile(r"^[a-z0-9][a-z0-9_-]*$")
_TOP_LEVEL_KEYS = {
    "schema",
    "name",
    "version",
    "title",
    "description",
    "kinds",
    "sources",
    "sinks",
    "filters",
    "reverts",
    "propagation",
    "instances",
    "register_globals",
}
_VECTOR_VALUES = {vector.value for vector in InputVector}
_BUILTIN_KIND_VALUES = {kind.value for kind in ALL_KINDS}

#: The value of each optional entry field a pack leaves out, per
#: section.  Validated entries carry every field, so the compiler and
#: ``rules show`` read plain keys: ``kinds`` is a tuple (``("*",)`` for
#: every kind the compiled profile knows), ``args`` a tuple or ``None``
#: (every argument), ``class`` a name or ``None`` (a plain function).
_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "kinds": {"title": "", "description": ""},
    "instances": {"description": ""},
    "sources": {
        "vector": "Function",
        "kinds": "*",
        "class": None,
        "superglobal": False,
        "description": "",
    },
    "sinks": {"class": None, "args": None, "description": ""},
    "filters": {"class": None, "description": ""},
    "reverts": {"kinds": "*", "class": None, "description": ""},
    "propagation": {"kinds": "*", "args": None, "class": None, "description": ""},
}


def _filled(section: str, entry: Dict[str, Any]) -> Dict[str, Any]:
    """A validated ``entry`` of ``section`` with its defaults filled in
    (a new dict: the document, and so its content hash, stays as read)."""
    filled = {**_DEFAULTS[section], **entry}
    if "kinds" in filled:
        kinds = filled["kinds"]
        filled["kinds"] = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    if filled.get("args") is not None:
        filled["args"] = tuple(filled["args"])
    if "class" in filled:
        filled["class"] = filled["class"] or None
    return filled


def builtin_pack_dir() -> str:
    """Directory holding the packs shipped with the reproduction."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "packs")


def builtin_pack_names() -> Tuple[str, ...]:
    """Names of the shipped packs (sorted, without extensions)."""
    directory = builtin_pack_dir()
    names = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return ()
    for entry in entries:
        base, ext = os.path.splitext(entry)
        if ext in (".json", ".toml"):
            names.append(base)
    return tuple(sorted(names))


def resolve_pack_path(ref: str) -> str:
    """Map a pack reference onto a file path.

    A reference is either a shipped pack name (``ssrf``) or a
    filesystem path (anything containing a separator or an extension).
    """
    if os.sep in ref or "/" in ref or ref.endswith((".json", ".toml")):
        return ref
    for ext in (".json", ".toml"):
        candidate = os.path.join(builtin_pack_dir(), ref + ext)
        if os.path.exists(candidate):
            return candidate
    return ref  # unresolved name: load_pack reports a typed issue


def _parse_bytes(raw: bytes, path: str) -> Tuple[Optional[Dict[str, Any]], List[PackIssue]]:
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            return None, [
                PackIssue(
                    path,
                    "<file>",
                    "TOML packs require Python 3.11+ (stdlib tomllib); "
                    "re-author the pack as JSON for older interpreters",
                )
            ]
        try:
            return tomllib.loads(raw.decode("utf-8")), []
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            return None, [PackIssue(path, "<file>", f"TOML parse error: {exc}")]
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [PackIssue(path, "<file>", f"JSON parse error: {exc}")]
    if not isinstance(data, dict):
        return None, [PackIssue(path, "<file>", "pack document must be an object")]
    return data, []


def _str_field(
    entry: Dict[str, Any],
    key: str,
    where: str,
    issues: List[PackIssue],
    path: str,
    default: str = "",
    required: bool = False,
) -> str:
    value = entry.get(key, None)
    if value is None:
        if required:
            issues.append(PackIssue(path, where, f"missing required field '{key}'"))
        return default
    if not isinstance(value, str):
        issues.append(PackIssue(path, f"{where}.{key}", "must be a string"))
        return default
    if required and not value:
        issues.append(PackIssue(path, f"{where}.{key}", "must be non-empty"))
    return value


def _check_kinds(
    entry: Dict[str, Any],
    where: str,
    declared: set,
    issues: List[PackIssue],
    path: str,
    required: bool = False,
) -> None:
    """``kinds`` is absent (``"*"``), ``"*"``, or a non-empty list of
    builtin or pack-declared kind values."""
    value = entry.get("kinds", None)
    if value is None:
        if required:
            issues.append(PackIssue(path, where, "missing required field 'kinds'"))
        return
    if value == "*":
        return
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        issues.append(
            PackIssue(path, f"{where}.kinds", "must be \"*\" or a list of kind values")
        )
        return
    if not value:
        issues.append(PackIssue(path, f"{where}.kinds", "must not be empty"))
        return
    for item in value:
        if item != "*" and item not in declared and item not in _BUILTIN_KIND_VALUES:
            issues.append(
                PackIssue(
                    path,
                    f"{where}.kinds",
                    f"dangling kind label '{item}': not a builtin kind and "
                    f"not declared in this pack's 'kinds' section",
                )
            )


def _check_args(
    entry: Dict[str, Any], where: str, issues: List[PackIssue], path: str
) -> None:
    value = entry.get("args", None)
    if value is None:
        return
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(item, int) and not isinstance(item, bool) and item >= 0
                   for item in value)
    ):
        issues.append(
            PackIssue(
                path, f"{where}.args", "must be a non-empty list of argument indexes >= 0"
            )
        )


def _entries(
    data: Dict[str, Any],
    section: str,
    allowed_keys: set,
    issues: List[PackIssue],
    path: str,
) -> List[Tuple[Dict[str, Any], str]]:
    value = data.get(section, [])
    if not isinstance(value, list):
        issues.append(PackIssue(path, section, "must be a list"))
        return []
    out = []
    for index, entry in enumerate(value):
        where = f"{section}[{index}]"
        if not isinstance(entry, dict):
            issues.append(PackIssue(path, where, "must be an object"))
            continue
        for key in entry:
            if key not in allowed_keys:
                issues.append(PackIssue(path, f"{where}.{key}", "unknown field"))
        out.append((entry, where))
    return out


def validate_pack_data(
    data: Dict[str, Any], path: str = "<data>"
) -> Tuple[Optional[RulePack], List[PackIssue]]:
    """Validate a parsed pack document; return (pack, issues).

    ``pack`` is ``None`` whenever ``issues`` is non-empty — a pack that
    failed validation must never reach the compiler.  The content hash
    of in-memory documents is derived from their canonical JSON form.
    """
    issues: List[PackIssue] = []

    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            issues.append(PackIssue(path, key, "unknown top-level field"))

    schema = data.get("schema")
    if schema != PACK_SCHEMA_VERSION:
        issues.append(
            PackIssue(
                path,
                "schema",
                f"unsupported schema version {schema!r} "
                f"(this build supports {PACK_SCHEMA_VERSION})",
            )
        )

    name = _str_field(data, "name", "<pack>", issues, path, required=True)
    if name and not _SLUG.match(name):
        issues.append(
            PackIssue(path, "name", "must be a slug: lowercase letters/digits/_/-")
        )
    version = _str_field(data, "version", "<pack>", issues, path, required=True)
    title = _str_field(data, "title", "<pack>", issues, path)
    description = _str_field(data, "description", "<pack>", issues, path)
    register_globals = data.get("register_globals", False)
    if not isinstance(register_globals, bool):
        issues.append(PackIssue(path, "register_globals", "must be a boolean"))

    declared: set = set()
    kinds: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data, "kinds", {"value", "title", "description"}, issues, path
    ):
        value = _str_field(entry, "value", where, issues, path, required=True)
        _str_field(entry, "title", where, issues, path)
        _str_field(entry, "description", where, issues, path)
        if not value:
            continue
        if not _SLUG.match(value):
            issues.append(PackIssue(path, f"{where}.value", "must be a slug"))
            continue
        if value in _BUILTIN_KIND_VALUES:
            issues.append(
                PackIssue(
                    path,
                    f"{where}.value",
                    f"redeclares builtin kind '{value}' — builtin kinds may be "
                    f"referenced directly without a declaration",
                )
            )
            continue
        if value in declared:
            issues.append(PackIssue(path, f"{where}.value", f"duplicate kind '{value}'"))
            continue
        declared.add(value)
        kinds.append(_filled("kinds", entry))

    instances: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data, "instances", {"name", "class", "description"}, issues, path
    ):
        iname = _str_field(entry, "name", where, issues, path, required=True)
        iclass = _str_field(entry, "class", where, issues, path, required=True)
        _str_field(entry, "description", where, issues, path)
        if iname and iclass:
            instances.append(_filled("instances", entry))

    sources: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data,
        "sources",
        {"name", "vector", "kinds", "class", "superglobal", "description"},
        issues,
        path,
    ):
        sname = _str_field(entry, "name", where, issues, path, required=True)
        vector = _str_field(
            entry, "vector", where, issues, path,
            default=_DEFAULTS["sources"]["vector"],
        )
        if vector not in _VECTOR_VALUES:
            issues.append(
                PackIssue(
                    path,
                    f"{where}.vector",
                    f"unknown input vector {vector!r}; expected one of "
                    + ", ".join(sorted(_VECTOR_VALUES)),
                )
            )
        if not isinstance(entry.get("superglobal", False), bool):
            issues.append(PackIssue(path, f"{where}.superglobal", "must be a boolean"))
        _check_kinds(entry, where, declared, issues, path)
        _str_field(entry, "class", where, issues, path)
        _str_field(entry, "description", where, issues, path)
        if sname:
            sources.append(_filled("sources", entry))

    sinks: List[Dict[str, Any]] = []
    seen_sinks: set = set()
    for entry, where in _entries(
        data, "sinks", {"name", "kind", "class", "args", "description"}, issues, path
    ):
        sname = _str_field(entry, "name", where, issues, path, required=True)
        kind = _str_field(entry, "kind", where, issues, path, required=True)
        if kind and kind not in declared and kind not in _BUILTIN_KIND_VALUES:
            issues.append(
                PackIssue(
                    path,
                    f"{where}.kind",
                    f"dangling kind label '{kind}': not a builtin kind and "
                    f"not declared in this pack's 'kinds' section",
                )
            )
        class_name = _str_field(entry, "class", where, issues, path)
        if sname and kind:
            dedup = (class_name, sname.lower(), kind)
            if dedup in seen_sinks:
                issues.append(
                    PackIssue(path, where, f"duplicate sink '{sname}' for kind '{kind}'")
                )
                continue
            seen_sinks.add(dedup)
            _check_args(entry, where, issues, path)
            _str_field(entry, "description", where, issues, path)
            sinks.append(_filled("sinks", entry))

    filters: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data, "filters", {"name", "kinds", "class", "description"}, issues, path
    ):
        sname = _str_field(entry, "name", where, issues, path, required=True)
        _check_kinds(entry, where, declared, issues, path, required=True)
        _str_field(entry, "class", where, issues, path)
        _str_field(entry, "description", where, issues, path)
        if sname:
            filters.append(_filled("filters", entry))

    reverts: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data, "reverts", {"name", "kinds", "description"}, issues, path
    ):
        sname = _str_field(entry, "name", where, issues, path, required=True)
        _check_kinds(entry, where, declared, issues, path)
        _str_field(entry, "description", where, issues, path)
        if sname:
            reverts.append(_filled("reverts", entry))

    propagation: List[Dict[str, Any]] = []
    for entry, where in _entries(
        data, "propagation", {"name", "kinds", "args", "class", "description"}, issues, path
    ):
        sname = _str_field(entry, "name", where, issues, path, required=True)
        _check_kinds(entry, where, declared, issues, path)
        _check_args(entry, where, issues, path)
        _str_field(entry, "class", where, issues, path)
        _str_field(entry, "description", where, issues, path)
        if sname:
            propagation.append(_filled("propagation", entry))

    if not (sources or sinks or filters or reverts or propagation or kinds or instances):
        issues.append(PackIssue(path, "<pack>", "pack declares no entries at all"))

    if issues:
        return None, issues

    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    content_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return (
        RulePack(
            name=name,
            version=version,
            path=path,
            content_hash=content_hash,
            title=title,
            description=description,
            register_globals=register_globals,
            kinds=tuple(kinds),
            sources=tuple(sources),
            sinks=tuple(sinks),
            filters=tuple(filters),
            reverts=tuple(reverts),
            propagation=tuple(propagation),
            instances=tuple(instances),
        ),
        [],
    )


def read_pack(ref: str) -> Tuple[str, bytes]:
    """Resolve ``ref`` (name or path) and read the pack file's raw bytes.

    Raises :class:`PackError` when the file cannot be read.
    """
    path = resolve_pack_path(ref)
    try:
        with open(path, "rb") as handle:
            return path, handle.read()
    except OSError as exc:
        raise PackError(
            [PackIssue(str(ref), "<file>", f"cannot read pack: {exc}")]
        ) from None


def parse_pack(path: str, raw: bytes) -> RulePack:
    """Parse and validate the raw bytes of the pack file at ``path``.

    Raises :class:`PackError` carrying every issue found.  The content
    hash is computed over the raw bytes, so any edit — including
    whitespace — produces a new pack identity and therefore new cache
    keys everywhere downstream.
    """
    data, issues = _parse_bytes(raw, path)
    if issues:
        raise PackError(issues)
    pack, issues = validate_pack_data(data, path)
    if issues:
        raise PackError(issues)
    return replace(pack, content_hash=hashlib.sha256(raw).hexdigest()[:16])


def load_pack(ref: str) -> RulePack:
    """Load and validate the pack at ``ref`` (name or path)."""
    return parse_pack(*read_pack(ref))
