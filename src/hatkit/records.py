"""The JSON form of flat report records."""

from __future__ import annotations

from dataclasses import fields

# Field metadata of a group order: written as a string, because orders
# outgrow the integers that JSON readers keep exact.
GROUP_ORDER = {"as_string": True}


class JsonRecord:
    """Mixin for a flat dataclass report.  to_json_dict writes its fields
    in declaration order, skips repr=False fields (artefacts attached for
    later stages) and writes GROUP_ORDER fields as strings."""

    def to_json_dict(self):
        out = {}
        for f in fields(self):
            if f.repr:
                value = getattr(self, f.name)
                if f.metadata.get("as_string"):
                    value = str(value)
                out[f.name] = value
        return out
