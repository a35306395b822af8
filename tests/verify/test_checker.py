"""The independent checker: accepts honest certificates, rejects every
tampering with a pinpointed finding."""

import re

from repro.circuit.generator import random_design
from repro.runtime.jsonio import array_from_json, array_to_json
from repro.verify import check_certificate

from .conftest import tampered

_PRUNE_LOC = re.compile(r".+:prune\d+@k\d+")


class TestAccepts:
    def test_valid_addition(self, addition_cert, certify_design):
        report = check_certificate(addition_cert, design=certify_design)
        assert report.ok, report.summary()
        assert not report.errors
        assert sum(report.checked.values()) > 100  # it actually did the work

    def test_valid_elimination(self, elimination_cert, certify_design):
        report = check_certificate(elimination_cert, design=certify_design)
        assert report.ok, report.summary()

    def test_valid_without_design(self, addition_cert):
        # Without the design the interval recompute is skipped but every
        # certificate-internal obligation still runs.
        report = check_certificate(addition_cert)
        assert report.ok, report.summary()


    def test_one_linspace_per_grid(self, addition_cert, monkeypatch):
        # Witness sides re-score on their context's grid; its instants are
        # built once per grid and check, not once per side.
        from repro.verify.certificate import WitnessContext

        calls = []
        real = WitnessContext.times

        def counting(self):
            calls.append(self.grid)
            return real(self)

        monkeypatch.setattr(WitnessContext, "times", counting)
        report = check_certificate(addition_cert)
        assert report.ok, report.summary()
        sides = report.checked["prune-score-recompute"]
        assert sides > len(calls) > 0
        assert len(calls) == len(set(calls))


class TestRejectsTampering:
    def test_wrong_format_version(self, addition_cert):
        bad = tampered(
            addition_cert, lambda d: d.update(format_version=999)
        )
        report = check_certificate(bad)
        assert not report.ok
        assert report.count("format-version") == 1

    def test_inflated_dominator_score(self, addition_cert):
        def mutate(d):
            d["witnesses"][0]["dominator"]["score"] += 0.5

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        assert report.count("prune-score-recompute") >= 1
        loc = next(f for f in report.errors).location
        assert _PRUNE_LOC.match(loc)

    def test_shrunken_dominator_envelope(self, addition_cert):
        def mutate(d):
            w = d["witnesses"][0]["dominator"]
            w["env"] = array_to_json(array_from_json(w["env"]) * 0.25)

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        # A shrunken dominator either stops encapsulating or re-scores
        # away from its recorded score; both pinpoint the prune.
        kinds = {f.kind for f in report.errors}
        assert kinds & {"prune-encapsulation", "prune-score-recompute"}

    def test_score_order_inversion(self, addition_cert):
        def mutate(d):
            w = d["witnesses"][0]
            # Swap the sides: the "dominator" is now the worse set.
            w["dominator"], w["dominated"] = w["dominated"], w["dominator"]

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok

    def test_corrupted_delta_history(self, addition_cert):
        def mutate(d):
            d["fixpoints"][0]["delta_history"][-1] += 1.0

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        assert report.count("fixpoint-delta") >= 1

    def test_false_convergence_claim(self, addition_cert):
        def mutate(d):
            fp = d["fixpoints"][0]
            last = fp["trace"][-1]
            bumped = {n: v + 1.0 for n, v in last.items()}
            fp["trace"].append(bumped)
            fp["delta_history"].append(1.0)
            fp["iterations"] += 1

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        assert report.count("fixpoint-convergence") >= 1

    def test_delay_outside_static_bound(self, addition_cert):
        def mutate(d):
            d["result"]["nominal_delay"] = 1e6

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        assert report.count("interval-containment") >= 1

    def test_truncated_witness_context(self, addition_cert):
        def mutate(d):
            net = d["witnesses"][0]["net"]
            del d["witness_context"][net]

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok
        assert report.count("structure") >= 1

    def test_lying_coverage_counter(self, addition_cert):
        def mutate(d):
            d["witness_coverage"]["recorded"] += 1

        report = check_certificate(tampered(addition_cert, mutate))
        assert not report.ok

    def test_wrong_design(self, addition_cert):
        other = random_design("other", n_gates=20, target_caps=30, seed=2)
        report = check_certificate(addition_cert, design=other)
        assert not report.ok
        assert report.count("design-mismatch") >= 1

    def test_pinpointing_names_the_prune(self, addition_cert):
        """The acceptance criterion: a rejection names the exact
        net/prune record, not just 'certificate invalid'."""

        def mutate(d):
            d["witnesses"][3]["dominated"]["score"] -= 0.25

        bad = tampered(addition_cert, mutate)
        report = check_certificate(bad)
        assert not report.ok
        w = bad.witnesses[3]
        expected = f"{w.net}:prune{w.seq}@k{w.cardinality}"
        assert any(f.location == expected for f in report.errors)


class TestReportApi:
    def test_summary_wording(self, addition_cert):
        ok = check_certificate(addition_cert)
        assert "VALID" in ok.summary()
        bad = check_certificate(
            tampered(addition_cert, lambda d: d.update(format_version=999))
        )
        assert "REJECTED" in bad.summary()

    def test_findings_stringify_with_location(self, addition_cert):
        bad = check_certificate(
            tampered(addition_cert, lambda d: d.update(format_version=999))
        )
        text = str(bad.errors[0])
        assert "format-version" in text and "error" in text
