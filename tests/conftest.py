import pytest

from critex import bundled_kb_path, load_kb
from critex.kb import KbEntry, KnowledgeBase

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

    return KnowledgeBase.build([
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
