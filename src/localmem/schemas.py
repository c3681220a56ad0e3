"""JSON schemas for run configurations and emitted reports, and the
validator that checks a document against them.

Configurations are validated before execution by :func:`schema_errors`;
reports are validated by the test suite to keep the output contract stable.
Every object, at any depth, is closed: it takes only its listed properties,
so a typo cannot silently change a run, and it requires each of them. A field
is made optional by naming it in ``_object``'s ``optional`` argument.

The schemas are JSON Schema (Draft 2020-12) documents drawn from a closed
vocabulary: ``type``, ``const``, ``enum``, ``oneOf``, ``minimum``,
``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum``, ``items``,
``minItems``, ``required``, ``properties``, ``additionalProperties: false``
and ``$schema``, which carries no rule. :func:`schema_errors` implements
exactly these keywords, with Draft 2020-12's rules, and refuses a schema that
uses any other.
"""

from __future__ import annotations

import operator


def _object(properties: dict, optional=()) -> dict:
    """A closed object schema requiring every property not named optional."""
    unknown = [name for name in optional if name not in properties]
    if unknown:
        raise ValueError(f"optional names {unknown} are not properties")
    return {
        "type": "object",
        "additionalProperties": False,
        "required": [name for name in properties if name not in optional],
        "properties": properties,
    }


def _document(properties: dict, optional=()) -> dict:
    """A top-level ``_object`` schema, with ``$schema`` as its first keyword."""
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", **_object(properties, optional)}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    # true is no number, and a float with an integral value is an integer.
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer(),
}

# keyword: (the comparison that fails a number, its message). NaN fails none.
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}

_KEYWORDS = {
    "$schema", "type", "const", "enum", "oneOf", "items", "minItems", "required", "properties",
    "additionalProperties", *_BOUNDS,
}


def _check_vocabulary(schema: dict) -> None:
    """Raise ValueError on a keyword outside the closed vocabulary, at any depth."""
    bad = set(schema) - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        bad.add("additionalProperties")
    kind = schema.get("type", "null")
    if not isinstance(kind, str) or kind not in _TYPES:
        bad.add("type")
    if bad:
        raise ValueError(f"schema keywords outside the validator's vocabulary: {sorted(bad)}")
    children = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for child in children + ([schema["items"]] if "items" in schema else []):
        _check_vocabulary(child)


def _same(a, b) -> bool:
    """JSON equality of scalars: true is not 1, but 2.0 is 2."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _errors(instance, schema: dict, path: tuple):
    """(path, message) for each keyword of ``schema`` that ``instance`` breaks,
    in keyword order. As in JSON Schema, a keyword applies only to the
    instance types it speaks of: a bound skips a string, ``items`` a number."""
    is_number, is_array, is_object = (_TYPES[t](instance) for t in ("number", "array", "object"))
    for keyword, value in schema.items():
        if keyword == "type" and not _TYPES[value](instance):
            yield path, f"{instance!r} is not of type {value!r}"
        elif keyword == "const" and not _same(instance, value):
            yield path, f"{value!r} was expected"
        elif keyword == "enum" and not any(_same(instance, v) for v in value):
            yield path, f"{instance!r} is not one of {value!r}"
        elif keyword == "oneOf":
            matches = sum(not any(_errors(instance, sub, path)) for sub in value)
            if matches != 1:
                yield path, f"{instance!r} is valid under {matches} of the given schemas, not exactly one"
        elif keyword in _BOUNDS and is_number and _BOUNDS[keyword][0](instance, value):
            yield path, f"{instance!r} is {_BOUNDS[keyword][1]} {value!r}"
        elif keyword == "items" and is_array:
            for index, item in enumerate(instance):
                yield from _errors(item, value, path + (index,))
        elif keyword == "minItems" and is_array and len(instance) < value:
            yield path, f"{instance!r} has fewer than {value} items"
        elif keyword == "required" and is_object:
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif keyword == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(instance[name], sub, path + (name,))
        elif keyword == "additionalProperties" and is_object:
            extra = [name for name in instance if name not in schema.get("properties", {})]
            if extra:
                yield path, f"additional properties are not allowed ({', '.join(map(repr, extra))} unexpected)"


def schema_errors(instance, schema: dict) -> list[tuple[tuple, str]]:
    """Every (path, message) by which a JSON document breaks ``schema``,
    sorted by path, where a path holds the keys and indices from the root.

    Accepts and refuses what a Draft 2020-12 validator does, at the same
    paths: NaN passes every bound, so a NaN field reaches the domain checks
    of the code that reads it. Raises ValueError, before looking at the
    document, when ``schema`` uses a keyword outside the closed vocabulary.
    """
    _check_vocabulary(schema)
    return sorted(_errors(instance, schema, ()), key=lambda error: error[0])


_POSITIVE_INT = {"type": "integer", "minimum": 1}
_COUNT = {"type": "integer", "minimum": 0}
_UNIT = {"type": "number", "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}
_NULLABLE_INT = {"oneOf": [{"type": "integer"}, {"type": "null"}]}
_NULLABLE_NUMBER = {"oneOf": [{"type": "number"}, {"type": "null"}]}

_PRIOR = _object(
    {
        "alpha": {"type": "number", "exclusiveMinimum": 0.0},
        "beta": {"type": "number", "exclusiveMinimum": 0.0},
    }
)

_SCALAR_OR_VECTOR_NUMBER = {
    "oneOf": [{"type": "number"}, {"type": "array", "items": {"type": "number"}, "minItems": 1}]
}
_SCALAR_OR_VECTOR_INT = {
    "oneOf": [
        {"type": "integer"},
        {"type": "array", "items": {"type": "integer"}, "minItems": 1},
    ]
}

DESIGN_SPEC = _object(
    {
        "baskets": _POSITIVE_INT,
        "max_sizes": _SCALAR_OR_VECTOR_INT,
        "theta0": _SCALAR_OR_VECTOR_NUMBER,
        "theta1": _SCALAR_OR_VECTOR_NUMBER,
        "delta": {"type": "number"},
        "prior": _PRIOR,
        "lambda": _UNIT,
        "gamma": {"type": "number", "minimum": 0.0},
        "stages": {"enum": [1, 2]},
        "interim_fraction": _UNIT,
        "interim_sizes": _SCALAR_OR_VECTOR_INT,
    },
    optional=("prior", "lambda", "gamma", "interim_fraction", "interim_sizes"),
)

ANALYZE_CONFIG = _document(
    {
        "x": {"type": "array", "items": _COUNT, "minItems": 1},
        "n": {"type": "array", "items": _COUNT, "minItems": 1},
        "basket_ids": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "delta": {"type": "number"},
        "prior": _PRIOR,
        "theta0": _SCALAR_OR_VECTOR_NUMBER,
    },
    optional=("basket_ids", "prior"),
)

MONITOR_CONFIG = _document(
    {
        "spec": DESIGN_SPEC,
        "stage": {"enum": [1, 2]},
        "x": {"type": "array", "items": _COUNT, "minItems": 1},
        "n": {"type": "array", "items": _COUNT, "minItems": 1},
        "active": {"type": "array", "items": {"type": "boolean"}, "minItems": 1},
    },
    optional=("active",),
)

SCENARIO_CONFIG = _object(
    {
        "label": {"type": "string"},
        "true_rates": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    }
)

SIMULATE_CONFIG = _document(
    {
        "spec": DESIGN_SPEC,
        "scenarios": {
            "oneOf": [
                {"const": "suite"},
                {"type": "array", "items": SCENARIO_CONFIG, "minItems": 1},
            ]
        },
        "n_sims": _POSITIVE_INT,
        "seed": _SEED,
    },
    optional=("scenarios", "n_sims"),
)

CALIBRATE_CONFIG = _document(
    {
        "spec": DESIGN_SPEC,
        "fwer_target": {"type": "number", "minimum": 0.0, "exclusiveMaximum": 1.0},
        "lambda_grid": {"type": "array", "items": _UNIT, "minItems": 1},
        "gamma_grid": {"type": "array", "items": {"type": "number", "minimum": 0.0}, "minItems": 1},
        "n_sims": _POSITIVE_INT,
        "seed": _SEED,
    },
    optional=("fwer_target", "lambda_grid", "gamma_grid", "n_sims"),
)

_META = _object(
    {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "config_hash": {"type": "string"},
        "seed": _NULLABLE_INT,
        "n_sims": _NULLABLE_INT,
    }
)

ANALYSIS_REPORT = _document(
    {
        "meta": _META,
        "baskets": {
            "type": "array",
            "items": _object(
                {
                    "id": {"type": "string"},
                    "x": _COUNT,
                    "n": _COUNT,
                    "alpha": {"type": "number"},
                    "beta": {"type": "number"},
                    "mean": {"type": "number"},
                    "ess": {"type": "number"},
                    "prob_exceeds": {"type": "number"},
                }
            ),
        },
        "partitions": {
            "type": "array",
            "items": _object(
                {
                    "membership": {"type": "string"},
                    "num_blocks": _POSITIVE_INT,
                    "prior": {"type": "number"},
                    "weight": {"type": "number"},
                }
            ),
        },
        "similarity": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "top_partition": _object({"membership": {"type": "string"}, "weight": {"type": "number"}}),
    }
)

MONITOR_REPORT = _document(
    {
        "meta": _META,
        "stage": {"enum": [1, 2]},
        "boundary": _object(
            {"q1": {"type": "number"}, "q2": {"type": "number"}, "applied": {"type": "string"}}
        ),
        "top_partition": _object(
            {
                "membership": {"type": "string"},
                "weight": {"type": "number"},
                "basket_ids": {"type": "array", "items": {"type": "string"}},
            }
        ),
        "baskets": {
            "type": "array",
            "items": _object(
                {
                    "id": {"type": "string"},
                    "x": _COUNT,
                    "n": _COUNT,
                    "prob_exceeds": {"type": "number"},
                    "ess": {"type": "number"},
                    "decision": {
                        "enum": ["pending", "futility-stopped", "efficacious", "not-promising", "continue"]
                    },
                },
                optional=("prob_exceeds", "ess"),
            ),
        },
    }
)

_OC_ROW = _object(
    {
        "label": {"type": "string"},
        "true_rates": {"type": "array", "items": {"type": "number"}},
        "reject_rate": {"type": "array", "items": {"type": "number"}},
        "fwer": _NULLABLE_NUMBER,
        "trialwise_power": _NULLABLE_NUMBER,
        "expected_n": {"type": "array", "items": {"type": "number"}},
    }
)

SIMULATION_REPORT = _document(
    {
        "meta": _META,
        "basket_ids": {"type": "array", "items": {"type": "string"}},
        "scenarios": {"type": "array", "items": _OC_ROW},
    }
)

CALIBRATION_REPORT = _document(
    {
        "meta": _META,
        "lambda": {"type": "number"},
        "gamma": {"type": "number"},
        "boundary": _object({"q1": {"type": "number"}, "q2": {"type": "number"}}),
        "achieved_fwer": {"type": "number"},
        "achieved_power": {"type": "number"},
        "evaluation": _object(
            {
                "seed": {"type": "integer"},
                "fwer": {"type": "number"},
                "trialwise_power": {"type": "number"},
            }
        ),
    }
)

_SIMON_DESIGN = _object(
    {
        "r1": _COUNT,
        "n1": _POSITIVE_INT,
        "r": _COUNT,
        "n": _POSITIVE_INT,
        "alpha": {"type": "number"},
        "power": {"type": "number"},
        "en_null": {"type": "number"},
        "pet_null": {"type": "number"},
    }
)

SIMON_REPORT = _document(
    {
        "meta": _META,
        "minimax": _SIMON_DESIGN,
        "optimal": _SIMON_DESIGN,
        "scenarios": {"type": "array", "items": _OC_ROW},
    }
)
