"""The JSON of a classified element, the tests' oracle for divisors.json_rows.

json_rows writes each row's text from its integers; this reference builds
the object from QuadInt.to_json and str of the norms, and json.dumps writes
it, so the two share no serializer.
"""

import json

_NO_KEY = object()


def reference_json(cls, perfect_unit=_NO_KEY) -> dict:
    """cls's JSON object; a scan finding passes its perfect unit (a QuadInt
    or None), which adds the perfect_unit key."""
    obj = {
        "element": cls.element.to_json(),
        "even": cls.element.is_even(),
        "status": cls.status.value,
        "perfect": cls.perfect,
        "primitive": cls.primitive,
        "sigma": cls.sigma.to_json(),
        "norm": str(cls.norm),
        "sigma_norm": str(cls.sigma_norm),
    }
    if perfect_unit is not _NO_KEY:
        obj["perfect_unit"] = None if perfect_unit is None else perfect_unit.to_json()
    return obj


def reference_text(cls, perfect_unit=_NO_KEY) -> str:
    return json.dumps(reference_json(cls, perfect_unit), sort_keys=True)
