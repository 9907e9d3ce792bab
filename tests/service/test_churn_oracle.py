"""The churn oracle: incremental allocation == scratch after every op.

ISSUE acceptance: a seeded 10k-operation arrival/departure/demand
sequence, cross-checked against a from-scratch water-fill after **every**
operation (tolerance 1e-6), including a forced multi-link fallback step
injected mid-sequence via the fault injector's failure views.
"""

import pytest

from repro.service import run_churn
from repro.topology import TorusTopology
from repro.validation import CHURN_TOLERANCE, churn_case, churn_report

pytestmark = pytest.mark.service


class TestChurnOracle:
    def test_10k_op_sequence_with_forced_fallback(self):
        case = churn_case(
            seed=1205,
            n_ops=10_000,
            n_nodes=8,
            max_flows=24,
            fallback_at=5_000,
            fail_links=1,
            check_every=1,
        )
        assert case.max_rel_error <= CHURN_TOLERANCE, case.max_rel_error
        assert case.n_flows > 0
        # the oracle bites the patch, not the scratch fill behind it
        assert case.patch_share >= 0.5, case.patch_share

    def test_report_over_seeds_with_periodic_fallbacks(self):
        report = churn_report(
            n_cases=6, seed=0, n_ops=150, max_flows=16, fallback_every=3
        )
        assert report.ok, report.max_rel_error
        assert report.n_cases == 6
        assert report.max_rel_error <= CHURN_TOLERANCE
        assert min(case.patch_share for case in report.cases) >= 0.5
        assert "min patch share" in report.summary()

    def test_failure_view_flip_regression(self):
        """A mid-sequence failure-view flip (failed links change route
        membership on many links at once) must route through the counted
        full-recompute fallback and still match scratch afterwards."""
        result = run_churn(
            TorusTopology((4, 4)),
            seed=77,
            n_ops=200,
            max_flows=16,
            fallback_at=100,
            fail_links=2,
        )
        churn = result["churn"]
        assert churn["max_rel_error"] <= churn["tolerance"]
        assert churn["fallback_reasons"].get("rebuild") == 1
        assert churn["fallback_recomputes"] >= 1
        # The overwhelming majority of single-flow ops stayed incremental.
        assert churn["incremental_ops"] > churn["fallback_recomputes"] * 10

    def test_run_churn_is_deterministic(self):
        a = run_churn(TorusTopology((3, 3)), seed=9, n_ops=120, max_flows=12)
        b = run_churn(TorusTopology((3, 3)), seed=9, n_ops=120, max_flows=12)
        assert a == b
        assert a["churn"]["allocation_digest"] == b["churn"]["allocation_digest"]

    def test_different_seeds_diverge(self):
        a = run_churn(TorusTopology((3, 3)), seed=1, n_ops=120, max_flows=12)
        b = run_churn(TorusTopology((3, 3)), seed=2, n_ops=120, max_flows=12)
        assert a["churn"]["allocation_digest"] != b["churn"]["allocation_digest"]
