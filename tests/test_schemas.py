"""The config and report schemas: their exact content, the closed-object
rule, and the package's validator against jsonschema's."""

import hashlib
import json

import pytest
from jsonschema import Draft202012Validator

from localmem import schemas

# sha256 of json.dumps(schema), key order included: schemas.schema_errors
# applies keywords in dict order, so a reordering can change the order of a
# config's errors at one path, and with it which five the CLI prints.
DIGESTS = {
    "ANALYSIS_REPORT": "e0e9bd935c96dd926bd8c0372d1d29063a18c6c7dea9618308139af09db8204a",
    "ANALYZE_CONFIG": "1c2c0fabb962188b9f911b491d9b04fb72ed6d4721af56571c14618e19cc43c4",
    "CALIBRATE_CONFIG": "b0bb5c9fcad172d89e68f8bd0a4ee54b2975436a2d31235721839d337ac5e464",
    "CALIBRATION_REPORT": "1b5bf1a4aafb2a8213b65fd6079dce2ad721263c399ea040f5a4af0df883f4d0",
    "DESIGN_SPEC": "0e6c0401f0aad3faf45caa2e29cca53618691b9fb84b297618255b61964041b0",
    "MONITOR_CONFIG": "e6d604ccc4e7eca30582ea01e570ba1a9f3b85784b54a28877b678f1bf5281e2",
    "MONITOR_REPORT": "9da460f9e169282b7d7bb69978df4300dd70b2e82744a8c5bb51e5a427107aee",
    "SCENARIO_CONFIG": "ea20456557606991794b3e709467b5ba64b55efd8f9501d5f8358885ba25e156",
    "SIMON_REPORT": "ff2e5261024d133850b92f1eaa3e882dd8317f0774e8b8a8f200e8bfed319bc4",
    "SIMULATE_CONFIG": "6b6e111d531864193732cb0f779fe482cbcbf27a7b5d157ded56fe31a1a4ca4a",
    "SIMULATION_REPORT": "50b04d50ae99e4ebda46b953f185591d4573d1cbaeaf45489e6979d389579bd2",
}

PUBLIC = sorted(name for name in vars(schemas) if name.isupper() and not name.startswith("_"))


def objects(node):
    """Every object node of a schema, at any depth."""
    if isinstance(node, dict):
        if node.get("type") == "object" or "properties" in node:
            yield node
        for value in node.values():
            yield from objects(value)
    elif isinstance(node, list):
        for value in node:
            yield from objects(value)


def test_every_public_schema_is_pinned():
    assert PUBLIC == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_schema_digest(name):
    text = json.dumps(getattr(schemas, name))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", PUBLIC)
def test_every_object_is_closed(name):
    schema = getattr(schemas, name)
    Draft202012Validator.check_schema(schema)
    text = json.dumps(schema)
    assert "$defs" not in text and "$ref" not in text
    found = list(objects(schema))
    assert found
    for node in found:
        assert node["type"] == "object"
        assert node["additionalProperties"] is False
        assert set(node["required"]) <= set(node["properties"])


def test_object_refuses_an_unknown_optional_name():
    with pytest.raises(ValueError, match="thetaO"):
        schemas._object({"theta0": {"type": "number"}}, optional=("thetaO",))


# The validator that refuses configs is schemas.schema_errors; jsonschema's
# Draft202012Validator is the reference it must agree with. The corpus takes
# valid configs of every config schema, with the optional fields present and
# absent and both branches of each oneOf, and derives from each: every field
# removed, a field added to every object, and every node, the root included,
# replaced by each of VALUES, which hold the type boundaries (true, 1.0, 2.0,
# null) and the bound edges (0, 1, 2**64, NaN, +-Infinity).
SPEC = {
    "baskets": 2,
    "max_sizes": [16, 18],
    "theta0": [0.15, 0.2],
    "theta1": 0.45,
    "delta": 2.0,
    "prior": {"alpha": 0.5, "beta": 0.5},
    "lambda": 0.977,
    "gamma": 0.7,
    "stages": 2,
    "interim_fraction": 0.5,
    "interim_sizes": [8, 9],
}
MINIMAL_SPEC = {"baskets": 1, "max_sizes": 10, "theta0": 0.2, "theta1": 0.4, "delta": 0, "stages": 1}

VALID_CONFIGS = {
    "ANALYZE_CONFIG": [
        {"x": [1, 4], "n": [10, 12], "delta": 1.0, "theta0": 0.15},
        {"x": [0], "n": [0], "basket_ids": ["a"], "delta": -2, "prior": {"alpha": 1, "beta": 2}, "theta0": [0.1]},
    ],
    "MONITOR_CONFIG": [
        {"spec": SPEC, "stage": 1, "x": [1, 2], "n": [8, 9], "active": [True, False]},
        {"spec": MINIMAL_SPEC, "stage": 2, "x": [3], "n": [10]},
    ],
    "SIMULATE_CONFIG": [
        {"spec": SPEC, "scenarios": "suite", "n_sims": 10, "seed": 2**64 - 1},
        {"spec": MINIMAL_SPEC, "scenarios": [{"label": "null", "true_rates": [0.2]}], "seed": 0},
    ],
    "CALIBRATE_CONFIG": [
        {"spec": SPEC, "fwer_target": 0.0, "lambda_grid": [0.9], "gamma_grid": [0, 0.5], "n_sims": 1, "seed": 3},
        {"spec": MINIMAL_SPEC, "seed": 1},
    ],
}

VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, 1.0, 2.0, 1.5, -0.0, 2**64 - 1, 2**64, float("nan"),
    float("inf"), float("-inf"), "", "suite", [], [1], [0.5, True, "a"], {}, {"alpha": 1, "beta": 1},
]


def nodes(doc, path=()):
    """(path, node) for the document and every value inside it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


MISSING = object()


def replaced(doc, path, make):
    """A deep copy of doc with the node at path swapped for make(node);
    make returns MISSING to remove the node."""
    if not path:
        return make(doc)
    result = json.loads(json.dumps(doc))
    parent = result
    for key in path[:-1]:
        parent = parent[key]
    new = make(parent[path[-1]])
    if new is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return result


def corpus(valid):
    # Every top-level field broken at once: errors at several paths, which
    # the schema's property order and the sort by path order differently.
    yield {key: None for key in valid}
    for path, node in nodes(valid):
        if path:
            yield replaced(valid, path, lambda _: MISSING)
        if isinstance(node, dict):
            yield replaced(valid, path, lambda old: {**old, "typo": 1})
        for value in VALUES:
            yield replaced(valid, path, lambda _: value)


def reference_paths(validator, doc):
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return [tuple(e.absolute_path) for e in errors]


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
def test_validator_agrees_with_jsonschema(name):
    schema = getattr(schemas, name)
    reference = Draft202012Validator(schema)
    refused = 0
    for valid in VALID_CONFIGS[name]:
        assert schemas.schema_errors(valid, schema) == []
        for doc in corpus(valid):
            want = reference_paths(reference, doc)
            assert [path for path, _ in schemas.schema_errors(doc, schema)] == want, doc
            refused += bool(want)
    assert refused > 200


@pytest.mark.parametrize(
    "doc, schema, refused",
    [
        (True, {"type": "number"}, True),
        (True, {"type": "integer"}, True),
        (1.0, {"type": "integer"}, False),
        (float("nan"), {"type": "integer"}, True),
        (float("nan"), {"type": "number", "exclusiveMinimum": 0, "maximum": 1}, False),
        (float("inf"), {"type": "number", "maximum": 1}, True),
        (True, {"enum": [1, 2]}, True),
        (2.0, {"enum": [1, 2]}, False),
        (1, {"const": True}, True),
        (1, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, True),
        (1.5, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, False),
        ("a", {"minimum": 1, "items": {"type": "null"}, "required": ["a"]}, False),
    ],
)
def test_json_schema_rules(doc, schema, refused):
    assert bool(schemas.schema_errors(doc, schema)) == refused
    assert bool(list(Draft202012Validator(schema).iter_errors(doc))) == refused


@pytest.mark.parametrize("name", PUBLIC)
def test_validator_knows_every_public_schema(name):
    # The vocabulary is checked over the whole schema, whatever the document.
    schemas.schema_errors(None, getattr(schemas, name))


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"type": "object", "properties": {"a": {"items": {"format": "date"}}}},
        {"oneOf": [{"type": "null"}, {"$ref": "#"}]},
        {"type": "object", "additionalProperties": {"type": "number"}},
        {"type": ["string", "null"]},
        {"type": "decimal"},
    ],
)
def test_validator_refuses_an_unknown_keyword(schema):
    with pytest.raises(ValueError, match="vocabulary"):
        schemas.schema_errors({}, schema)
