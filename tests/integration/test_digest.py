"""The mediator's output over the whole default testbed, pinned as one digest.

Every source is integrated by the full THALIA mediator, by each of the
twelve single-capability ablations and by name-matcher (AutoMatch)
mappings.  One sha256 covers each run's courses and report, so any
change to how mappings read records that alters a single field, record
count or per-record error shows up here.
"""

import hashlib

from repro.integration import (
    DEFAULT_LEXICON,
    Capability,
    Mediator,
    auto_match,
    standard_mediator,
)

#: ``integration_digest`` of the default 25-source testbed at scale 1.
SCALE_1_DIGEST = (
    "0d975d1e8de133f0f4230beef248815171f1832fb8f71360850075b714948c89")


def mediators(testbed):
    """``(name, mediator)`` for the full mediator, its ablations and the
    matcher-derived mappings."""
    full = standard_mediator()
    yield "full", full
    for capability in Capability:
        yield f"without-{capability.name}", full.without_capability(capability)
    matched = Mediator(lexicon=DEFAULT_LEXICON)
    for bundle in testbed:
        matched.register(auto_match(bundle.document))
    yield "automatch", matched


def integration_digest(testbed) -> str:
    digest = hashlib.sha256()
    for name, mediator in mediators(testbed):
        for slug in testbed.slugs:
            courses, report = mediator.integrate_records(
                testbed.source(slug).document, slug)
            digest.update(repr((name, slug, courses, report.records,
                                report.errors)).encode())
    return digest.hexdigest()


def test_integration_digest_is_pinned(testbed):
    assert integration_digest(testbed) == SCALE_1_DIGEST
