"""polymerlab: simulation and exact-solver laboratory for directed polymers
in heavy-tailed random environments."""

import json
import math

__version__ = "0.1.0"


def json_text(record) -> str:
    """Strict JSON (RFC 8259) of a record, keys sorted, indented by 2: a
    non-finite float at any depth is written as the string "inf", "-inf"
    or "nan", which ``float()`` reads back.  The CLI's stdout and the
    campaign manifest are both this text."""

    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return str(value)
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value

    return json.dumps(finite(record), indent=2, sort_keys=True, allow_nan=False)
