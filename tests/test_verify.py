from thickrep import verify
from thickrep.repcore import Caps
from thickrep.verify import SKIPPED, VERIFIED, run_item


def test_agreement_samples_not_reused_across_caps(monkeypatch):
    monkeypatch.setattr(verify, "_agreement_cache", {})
    item = "criterion-definition-agreement"
    assert run_item(item).status == VERIFIED
    capped = run_item(item, caps=Caps(pair_cap=1))
    assert capped.status == SKIPPED
    assert "cap" in capped.details
