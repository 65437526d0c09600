"""Tests of the campaign core shared by fuzz, diff and chaos
(:func:`repro.check.fuzz.run_campaign`).

A finding's rendered repro must make the exact runner call the campaign
made — differential oracle, mutation, thread count, fault plan and SAM
size included — so pasted into a test file it fails while the bug exists.
"""

import pytest

from repro.check.diff import diff_campaign
from repro.check.fuzz import fuzz_campaign
from repro.coherence.states import ProtocolMode
from repro.faults.chaos import chaos_campaign

CAMPAIGNS = {
    # Only the differential oracle sees this mutation under FSDetect: the
    # repro reproduces only if it keeps ``differential=True``.
    "fuzz": lambda: fuzz_campaign(
        iterations=2, seed=0, modes=[ProtocolMode.FSDETECT],
        families=["disjoint"], length=40, differential=True,
        mutation="pam-reads-count-as-writes"),
    "diff": lambda: diff_campaign(
        iterations=2, seed=0, modes=[ProtocolMode.FSLITE],
        families=["disjoint"], length=40, mutation="sam-drops-writes"),
    "chaos": lambda: chaos_campaign(
        iterations=3, seed=7, modes=[ProtocolMode.FSLITE], length=40,
        mutation="sam-drops-writes", differential=True),
}


@pytest.mark.parametrize("verb", sorted(CAMPAIGNS))
def test_rendered_repros_reproduce(verb):
    result = CAMPAIGNS[verb]()
    assert result.findings, f"{verb} campaign found nothing to render"
    for finding in result.findings:
        namespace = {}
        exec(compile(finding.repro_source, f"<{verb}-repro>", "exec"),
             namespace)
        tests = [fn for name, fn in namespace.items()
                 if name.startswith(f"test_{verb}_repro")]
        assert len(tests) == 1
        with pytest.raises(AssertionError):
            tests[0]()
