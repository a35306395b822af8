"""The serial-only contract: ``TopKConfig.parallelism`` is inert.

The engine has one solve path.  A config that still asks for more than
one worker warns with a :class:`DeprecationWarning` and solves serially:
the answer and the certificate are those of ``parallelism=1``, the nine
execution counters read 0, and no child process is started.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.api import analyze
from repro.circuit.generator import make_paper_benchmark
from repro.core.engine import _EXECUTION_FIELDS, TopKConfig, TopKError


def _certificate_json(result):
    return json.dumps(result.certificate.to_json(), sort_keys=True)


@pytest.mark.parametrize("mode", ["addition", "elimination"])
def test_parallelism_above_one_warns_and_solves_serially(mode):
    design = make_paper_benchmark("i1")
    serial = analyze(design, k=3, mode=mode, certify=True)
    with pytest.warns(DeprecationWarning, match="parallelism is inert"):
        inert = analyze(
            design, k=3, mode=mode, config=TopKConfig(parallelism=2), certify=True
        )
    assert inert.couplings == serial.couplings
    assert inert.estimated_delay == serial.estimated_delay
    assert _certificate_json(inert) == _certificate_json(serial)
    assert len(_EXECUTION_FIELDS) == 9
    for name in _EXECUTION_FIELDS:
        assert getattr(inert.stats, name) == 0, name
    assert multiprocessing.active_children() == []


def test_parallelism_is_still_validated():
    with pytest.raises(TopKError, match="parallelism must be >= 1"):
        TopKConfig(parallelism=0)
