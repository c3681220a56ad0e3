"""The config and report schemas: their exact content, and the closed-object rule."""

import hashlib
import json

import pytest
from jsonschema import Draft202012Validator

from localmem import schemas

# sha256 of json.dumps(schema), key order included: jsonschema applies
# keywords in dict order, so a reordering can change a config error message.
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
