import concurrent.futures
import json

from thickrep import serialize, verify
from thickrep.cli import main
from thickrep.repcore import Caps
from thickrep.verify import ERROR, REFUTED, SKIPPED, VERIFIED, run_item, run_suite


def test_agreement_samples_not_reused_across_caps(monkeypatch):
    monkeypatch.setattr(verify, "_agreement_cache", {})
    item = "criterion-definition-agreement"
    assert run_item(item).status == VERIFIED
    capped = run_item(item, caps=Caps(pair_cap=1))
    assert capped.status == SKIPPED
    assert "cap" in capped.details


def test_capped_cross_check_is_a_field():
    result = run_item("block-rep-f13")
    assert result.status == VERIFIED
    skipped = result.details["cross_check_skipped"]
    assert skipped == "definition: pair enumeration 31110 x 31110 exceeds cap"
    assert "definition_verdict" not in result.details


def _crash(seed, caps):
    raise KeyError("boom")


def test_crashing_item_reports_error(monkeypatch):
    registry = [
        (iid, _crash if iid == "characters-gl2-wedge-identities" else fn)
        for iid, fn in verify.REGISTRY
    ]
    monkeypatch.setattr(verify, "REGISTRY", registry)
    for jobs in (1, 2):
        suite = run_suite(filter_substring="characters", jobs=jobs)
        statuses = [item.status for item in suite.items]
        assert statuses == [VERIFIED, ERROR, VERIFIED, VERIFIED]
        details = suite.items[1].details
        assert details["error"] == "KeyError" and "boom" in details["message"]
        assert suite.overall == ERROR


def _refuted(seed, caps):
    details = {}
    verify._check(True, details, "holds")
    verify._check(False, details, "fails_on_purpose")
    return details, []


def test_a_failing_check_refutes_the_item_and_the_suite(monkeypatch, capsys):
    monkeypatch.setattr(verify, "REGISTRY", [("refuted-item", _refuted)])
    suite = run_suite()
    (item,) = suite.items
    assert item.status == REFUTED
    assert "fails_on_purpose" in item.details["failure"]
    assert suite.overall == REFUTED
    assert main(["verify"]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] == REFUTED


def test_the_process_pool_returns_the_serial_certificates(monkeypatch):
    # block-rep and so-split each emit a certificate, so both cross the pool
    registry = [(iid, fn) for iid, fn in verify.REGISTRY
                if iid in ("block-rep-f13", "so-split-examples")]
    assert len(registry) == 2
    monkeypatch.setattr(verify, "REGISTRY", registry)

    def outcome(jobs):
        suite = run_suite(jobs=jobs)
        return suite.overall, [
            (item.item_id, item.status, item.details,
             [(name, serialize.dumps(payload)) for name, payload in item.certificates])
            for item in suite.items
        ]

    serial = outcome(1)
    assert serial[0] == VERIFIED
    assert [len(item[3]) for item in serial[1]] == [1, 1]
    assert outcome(2) == serial


def test_a_filter_that_selects_no_item_exits_3(capsys):
    assert main(["verify", "--filter", "zzz"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no verification item matches filter 'zzz'" in captured.err
    assert "Traceback" not in captured.err


def test_a_suite_whose_every_item_is_skipped_exits_2(capsys):
    caps = '{"group_cap": 1, "pair_cap": 1}'
    assert main(["verify", "--filter", "wedge2-gl4", "--caps", caps]) == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["overall"] == SKIPPED
    assert [item["status"] for item in out["items"]] == [SKIPPED]
    assert "Traceback" not in captured.err


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    opened with and runs each submitted call at once, starting no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _holds(seed, caps):
    details = {}
    verify._check(True, details, "holds")
    return details, []


def test_the_process_pool_opens_no_more_workers_than_items(monkeypatch):
    # the pool starts all its workers at the first submit, so --jobs 64 on
    # three items must ask for three
    monkeypatch.setattr(verify, "REGISTRY", [(iid, _holds) for iid in "abc"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    for jobs in (2, 3, 64):
        suite = run_suite(jobs=jobs)
        assert suite.overall == VERIFIED and len(suite.items) == 3
    assert _InlinePool.sizes == [2, 3, 3]
    assert run_suite(filter_substring="b", jobs=64).overall == VERIFIED
    assert _InlinePool.sizes == [2, 3, 3, 1]
