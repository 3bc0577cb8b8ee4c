import json
import math
from itertools import repeat

import pytest

from critex import bundled_kb_path, load_kb
from critex.floats import left_sum
from critex.kb import KbEntry, KnowledgeBase
from critex.linker import _mix
from critex.pipeline import PipelineConfig
from critex.syntax import softmin_weights

CRITERION_LINE = "Body Mass Index ≤ 40 kg/m^2"

PARAGRAPH_ONE = (
    "Patients who are taking any concomitant medications that might confound "
    "assessments of pain relief, such as psychotropic drugs, antidepressants, "
    "sedative hypnotics or any analgesics taken within three days or five times of "
    "their elimination half-lives, whichever is longer. Selective serotonin "
    "reuptake inhibitors (SSRIs) and selective noradrenaline reuptake inhibitors "
    "(SNRIs) are permitted if the patient has been on a stable dose for at least 30 "
    "days prior to screening."
)

PARAGRAPH_TWO = (
    "M/F ages 21-45 with a history of smoked cocaine use at least twice a week for "
    "the past six months. A normal resting 12-lead electrocardiograph (ECG) and "
    "blood pressure of less than 140/90 mmHg."
)

# Knowledge bases that must fail to load with MalformedKb (exit 2 from the
# CLI): case -> (units, fields of the one entry, a fragment of the message).
MALFORMED_KBS = {
    "non-string synonym": ({}, {"synonyms": [1]}, "LOCAL:x: synonyms must be a tuple of str"),
    "non-string expected unit": (
        {}, {"expected_units": [7]}, "LOCAL:x: expected_units must be a tuple of str",
    ),
    "blank synonym": ({}, {"synonyms": [" "]}, "blank synonym"),
    "blank expected unit": ({}, {"expected_units": ["\t"]}, "blank expected unit"),
    "inverted range": ({}, {"value_min": 10, "value_max": 5}, "value_min 10 > value_max 5"),
    # json writes and reads NaN and Infinity, which are not JSON
    "NaN bound": ({}, {"value_min": math.nan, "value_max": 5}, "value_min must be finite"),
    "infinite bound": ({}, {"value_max": math.inf}, "value_max must be finite"),
    "boolean bound": ({}, {"value_min": True}, "LOCAL:x: value_min must be a real number"),
    "unknown value pattern": (
        {}, {"value_pattern": "LIST"}, "LOCAL:x: value_pattern must be a ValuePattern or None",
    ),
    "empty concept id": ({}, {"concept_id": ""}, "empty concept_id"),
    "blank unit variant": ({"  ": "mmHg"}, {"expected_units": ["mmHg"]}, "blank unit"),
    "blank canonical unit": ({"torr": ""}, {"expected_units": ["torr"]}, "blank unit"),
    # "kilograms" would still read kg, but "kg" would read KG
    "canonical unit not its own": (
        {"kg": "KG"}, {"expected_units": ["kilograms"]},
        "unit 'kilogram' -> 'kg', but 'kg' -> 'KG': a canonical form must normalize to itself",
    ),
}


def malformed_kb_file(tmp_path, case):
    """Write the knowledge base of a :data:`MALFORMED_KBS` case.

    Returns its path and the fragment of the error message.
    """

    units, fields, message = MALFORMED_KBS[case]
    entry = {"concept_id": "LOCAL:x", "preferred_term": "x", **fields}
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"version": 1, "units": units, "entries": [entry]}))
    return path, message


def malformed_kb_where(path, case):
    """The start of a :data:`MALFORMED_KBS` case's message: the file, and
    the entry when the entry is at fault rather than the unit table."""

    return f"{path}: " if MALFORMED_KBS[case][0] else f"{path}: entries[0]: "


def softmin_p_dep(distances, tau=PipelineConfig().tau):
    """``p_dep`` of each distance, normalized as the linker normalizes it.

    The softmin weights over their left-to-right total, through the
    linker's ``_mix`` at ``theta = 0``, which returns ``p_dep`` exactly.
    """

    weights = softmin_weights(distances, tau)
    return _mix(repeat(0.0), weights, 0.0, left_sum(weights))


@pytest.fixture(scope="session")
def mini_kb():
    return load_kb(bundled_kb_path())


@pytest.fixture(scope="session")
def held_kb(mini_kb):
    """The bundled KB plus terms that hold an attribute.

    The entity scan takes "12-lead ECG" and "resting heart rate" whole, and
    the attribute grammar still finds the qualifiers "12-lead" and
    "resting" inside them.
    """

    return KnowledgeBase([
        *mini_kb.entries,
        KbEntry(concept_id="LOCAL:ecg12", preferred_term="12-lead ECG",
                synonyms=("12-lead electrocardiograph",)),
        KbEntry(concept_id="LOCAL:rhr", preferred_term="resting heart rate"),
    ])


@pytest.fixture()
def criterion_line():
    return CRITERION_LINE


@pytest.fixture()
def paragraph_one():
    return PARAGRAPH_ONE


@pytest.fixture()
def paragraph_two():
    return PARAGRAPH_TWO
