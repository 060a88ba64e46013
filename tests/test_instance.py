import json

import pytest

from conftest import make_instance
from oltsp_lab import (
    CLOSED,
    OPEN,
    GenParams,
    Instance,
    Request,
    decode,
    encode,
    generate_random,
    validate_instance,
)
from oltsp_lab.instance import FormatError
from oltsp_lab.metric import General, Ring, SemiLine


def test_validate_reference_instance_ok(example1):
    assert validate_instance(example1) == []


def test_validate_negative_release(example1):
    bad = Instance(
        space=example1.space,
        variant=CLOSED,
        requests=(Request(1, 1, -1.0),),
    )
    issues = validate_instance(bad)
    assert any("negative release" in v for v in issues)


@pytest.mark.parametrize("cell", [(2, 1), (1, 1)])
def test_validate_refuses_any_negative_distance(example1, cell):
    """An entry below 0, however small and the diagonal included, is refused:
    alg1's start threshold relies on no leg being negative."""
    rows = [list(row) for row in example1.space.matrix]
    i, j = cell
    rows[i][j] = -1e-12
    bad = Instance(space=General.from_rows(rows, symmetric=False), variant=CLOSED,
                   requests=example1.requests)
    assert f"negative entry ({i},{j})" in validate_instance(bad)


def test_validate_refuses_a_matrix_without_the_origin():
    inst = Instance(space=General.from_rows([]), variant=CLOSED, requests=())
    assert validate_instance(inst) == ["matrix has no row for the origin"]


def test_validate_ring_sorting_names_the_pair():
    bad = make_instance(Ring(1.0), CLOSED, [(0.7, 0.0), (0.2, 0.0)])
    issues = validate_instance(bad)
    assert any("ids (1,2)" in v for v in issues)


def test_validate_id_numbering():
    inst = Instance(space=SemiLine(), variant=OPEN, requests=(Request(4, 0.1, 0.0),))
    assert any("contiguous" in v for v in validate_instance(inst))


def test_roundtrip_reference_instance(example1):
    assert decode(encode(example1)) == example1


@pytest.mark.parametrize("kind,params", [
    ("semiline", {}),
    ("line", {}),
    ("ring", {"circumference": 2.0}),
    ("star", {"ray_count": 4}),
    ("general", {}),
    ("general", {"asymmetric": True}),
])
def test_roundtrip_generated(kind, params):
    inst = generate_random(
        GenParams(n=5, seed=99, release_horizon=1.5, space_params=params),
        kind,
        variant=OPEN,
    )
    assert validate_instance(inst) == []
    again = decode(encode(inst))
    assert again == inst
    assert encode(again) == encode(inst)


def test_decode_missing_variant(example1):
    doc = json.loads(json.dumps({
        "space": {"kind": "semiline"},
        "knowledge": "locations",
        "requests": [],
    }))
    with pytest.raises(FormatError, match="missing field: variant"):
        decode(json.dumps(doc))


STRICT_BASES = {
    "star": ({"kind": "star", "rayCount": 3}, [2, 0.5]),
    "ring": ({"kind": "ring", "circumference": 1.0}, 0.5),
    "general": ({"kind": "general", "matrix": [[0, 1], [1, 0]], "symmetric": True}, 1),
}


@pytest.mark.parametrize("kind,where,field,value", [
    ("star", "request", "id", 1.9),
    ("star", "request", "id", True),
    ("star", "request", "point", [2.7, 0.5]),
    ("star", "request", "point", [2, "0.5"]),
    ("star", "request", "release", "1.0"),
    ("star", "request", "release", float("nan")),
    ("star", "space", "rayCount", 3.0),
    ("ring", "request", "point", "0.5"),
    ("ring", "space", "circumference", "1"),
    ("ring", "space", "circumference", float("inf")),
    ("general", "request", "point", 1.0),
    ("general", "space", "matrix", [[0, "1"], [1, 0]]),
    ("general", "space", "symmetric", "false"),
    ("general", "space", "matrix", [[0, 1], 5]),
    ("star", "document", "requests", [5]),
    ("star", "document", "space", 7),
])
def test_decode_rejects_wrong_json_types(kind, where, field, value):
    space, point = STRICT_BASES[kind]
    doc = {"space": dict(space), "variant": "closed", "knowledge": "locations",
           "requests": [{"id": 1, "point": point, "release": 1.0}]}
    assert decode(json.dumps(doc)).n == 1
    {"space": doc["space"], "request": doc["requests"][0], "document": doc}[where][field] = value
    with pytest.raises(FormatError, match="bad"):
        decode(json.dumps(doc))


def test_decode_malformed_reports_line():
    with pytest.raises(FormatError, match="line"):
        decode("{\n  broken\n}")


def test_encode_empty_instance_roundtrip():
    empty = Instance(space=Ring(1.0), variant=CLOSED, requests=())
    assert decode(encode(empty)).n == 0


def test_generator_deterministic():
    p = GenParams(n=6, seed=1234, release_horizon=2.0, space_params={"ray_count": 3})
    a = encode(generate_random(p, "star", variant=CLOSED))
    b = encode(generate_random(p, "star", variant=CLOSED))
    assert a == b


def test_generator_empty():
    inst = generate_random(GenParams(n=0, seed=5), "semiline")
    assert inst.n == 0
    assert validate_instance(inst) == []


def test_generator_domains():
    inst = generate_random(
        GenParams(n=5, seed=1, release_horizon=2.0, space_params={"length": 1.0}),
        "semiline",
    )
    for req in inst.requests:
        assert 0.0 <= req.point <= 1.0
        assert 0.0 <= req.release <= 2.0


def test_generator_every_instance_validates():
    for seed in range(40):
        for kind, sp in [
            ("semiline", {}),
            ("line", {}),
            ("ring", {"non_line_like": seed % 2 == 0}),
            ("star", {"ray_count": 5}),
            ("general", {"asymmetric": seed % 2 == 1}),
        ]:
            n = seed % 7
            if kind == "ring" and sp["non_line_like"]:
                n = max(n, 2)
            inst = generate_random(
                GenParams(n=n, seed=seed, release_horizon=1.0, space_params=sp), kind
            )
            assert validate_instance(inst) == [], (kind, seed)


def test_generator_non_line_like_filter():
    for seed in range(30):
        inst = generate_random(
            GenParams(n=3, seed=seed, space_params={"non_line_like": True}), "ring"
        )
        pts = sorted([0.0] + [r.point for r in inst.requests])
        gaps = [b - a for a, b in zip(pts, pts[1:])] + [1.0 - pts[-1] + pts[0]]
        assert max(gaps) <= 0.5 + 1e-12


def test_generator_non_line_like_ring_needs_two_requests():
    # One point p leaves a gap max(p, c - p) >= c/2 with the origin.
    for n in (0, 1):
        with pytest.raises(ValueError, match="n >= 2"):
            generate_random(
                GenParams(n=n, seed=0, space_params={"non_line_like": True}), "ring"
            )


def test_generator_caps():
    with pytest.raises(ValueError):
        generate_random(GenParams(n=19, seed=1), "semiline")
    with pytest.raises(ValueError):
        generate_random(GenParams(n=-1, seed=1), "semiline")
