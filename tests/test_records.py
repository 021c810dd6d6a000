"""Wire records and the toy's run result are values: none can be changed after
it is built, and each equals the record rebuilt from its own fields."""

import numpy as np
import pytest

from obliq.gates import random_program
from obliq.harness import parse_transcript
from obliq.oracle import random_state
from obliq.toqc import run_toqc
from obliq.toy import run_toy


def _records():
    rng = np.random.default_rng(150)
    res = run_toqc(random_program(2, 1, rng), psi=random_state(2, rng), seed=151)
    return {
        "StepMessage": res.transcript.records[0],
        "BranchRecord": res.branch_records[0],
        "ParsedRecord": parse_transcript(res.transcript.render())[0],
        "ToyResult": run_toy(5, random_state(1, rng), seed=152),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment(name):
    rec = RECORDS[name]
    assert type(rec).__name__ == name
    for field in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_its_rebuild_from_its_fields(name):
    rec = RECORDS[name]
    rebuilt = type(rec)(**{field: getattr(rec, field) for field in rec._fields})
    assert rebuilt == rec and rebuilt is not rec
