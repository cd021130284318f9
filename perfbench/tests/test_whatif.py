"""What-if answers are checked against ``diff_generations``."""

import json
import random

import pytest

import layers
from loadgen import OK, REFUSED, WRONG
from repro.datasets.registry import get_scenario
from repro.diff import parse_rule_spec, what_if
from repro.serve import proto
from spans import Tracer
from workloads import WhatIfCheck, _traced_slice, _whatif_requests


@pytest.fixture(scope="module")
def classifier():
    scenario = get_scenario("internet2", prefixes_per_router=2)
    return layers.build(scenario, "numpy", Tracer(False))


@pytest.fixture(scope="module")
def requests(classifier):
    requests = _whatif_requests(classifier, random.Random(1), 4)
    assert [len(specs) for _, specs in requests] == [1, 2, 3, 4]
    return requests


def served(classifier, ingress, specs) -> dict:
    layout = classifier.dataplane.layout
    add = [parse_rule_spec(spec, layout) for spec in specs]
    return what_if(classifier, ingress, add=add).to_json(0)


def answer(report):
    return proto.WHATIF_RESULT, json.dumps(report).encode()


def test_right_reports_pass(classifier, requests):
    check = WhatIfCheck(requests)
    reports = [served(classifier, *request) for request in requests]
    for repeat in range(2):
        for index, report in enumerate(reports):
            assert check(index + repeat * len(requests), answer(report)) == OK
    assert check.verify(classifier) == 0


@pytest.mark.parametrize("fault", ["first_rule_only", "volume"])
def test_a_wrong_three_rule_whatif_is_caught(classifier, requests, fault):
    check = WhatIfCheck(requests)
    reports = [served(classifier, *request) for request in requests]
    ingress, specs = requests[2]
    if fault == "first_rule_only":
        wrong = served(classifier, ingress, specs[:1])
        assert wrong["changed_volume"] != reports[2]["changed_volume"]
    else:
        wrong = dict(reports[2], changed_volume=reports[2]["changed_volume"] + 1)
    reports[2] = wrong
    # Wrong from the start, the report is consistent with its repeats and
    # only the diff check after the window can catch it.
    for index, report in enumerate(reports + reports):
        assert check(index, answer(report)) == OK
    assert check.verify(classifier) == 1


def test_a_changed_repeat_is_wrong_and_an_error_refused(classifier, requests):
    check = WhatIfCheck(requests)
    report = served(classifier, *requests[0])
    assert check(0, answer(report)) == OK
    changed = dict(report, changed_classes=report["changed_classes"] + 1)
    assert check(len(requests), answer(changed)) == WRONG
    assert check(1, (proto.ERROR, b"shed")) == REFUSED


def test_no_report_at_all_fails(classifier, requests):
    assert WhatIfCheck(requests).verify(classifier) == 1


def test_traced_slices_alternate_inside_the_window():
    start = 10.0
    assert not _traced_slice(start, 9.5)
    assert not _traced_slice(start, 10.0)
    assert not _traced_slice(start, 10.99)
    assert _traced_slice(start, 11.0)
    assert not _traced_slice(start, 12.5)
    assert _traced_slice(start, 13.2)
