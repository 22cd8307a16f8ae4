"""Configuration documents: JSON or an equivalent plain-text key tree.

The plain-text form is one dotted key per line:

    # material
    material.rho = 1.0
    material.mu = 1.0
    kappa_s = [1.0, 2.0, 4.0]
    robin.choice = shear

Values are parsed as JSON fragments (numbers, lists, booleans, strings);
bare words fall back to strings.  Both forms produce the same nested
dictionary.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError

__all__ = ["load_config", "parse_text_config"]


def parse_text_config(text: str) -> dict:
    root: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} collides with scalar {part!r}")
        node[parts[-1]] = parsed
    return root


def load_config(path) -> dict:
    """Load a configuration document (JSON by suffix/shape, plain text
    otherwise)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"configuration file not found: {p}")
    text = p.read_text()
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON configuration: {exc}") from exc
    else:
        doc = parse_text_config(text)
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a key-value tree")
    return doc
