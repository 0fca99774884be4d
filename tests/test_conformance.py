"""Same behaviour: every category of the conformance corpus hashes to its committed digest."""

import json

import pytest

import conformance

COMMITTED = json.loads(conformance.DIGEST_FILE.read_text())


def test_every_category_is_committed():
    assert sorted(COMMITTED) == sorted(conformance.CATEGORIES)


@pytest.mark.parametrize("category", sorted(conformance.CATEGORIES))
def test_category_matches_its_digest(category):
    expected = COMMITTED[category]
    found = conformance.digests(conformance.CATEGORIES[category]())
    if found == expected:
        return
    differing = [
        i for i, (a, b) in enumerate(zip(found["chunks"], expected["chunks"])) if a != b
    ]
    first = differing[0] if differing else min(len(found["chunks"]), len(expected["chunks"]))
    pytest.fail(
        f"{category}: {found['cases']} cases, {expected['cases']} committed; chunk {first} "
        f"is the first that differs. Compare "
        f"`PYTHONPATH=src python tests/conformance.py --dump {category} {first}` "
        "with its output at the parent commit."
    )
