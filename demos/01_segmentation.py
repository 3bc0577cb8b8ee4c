"""Sentence and token segmentation.

Clinical-trial records come in two layouts: eligibility criteria are
usually one criterion per line, while summaries are prose paragraphs.
This demo shows both split modes and the token shapes the rest of the
pipeline relies on.
"""

from critex import SplitMode, split_records, tokenize

# -- line-organized criteria -------------------------------------------------

criteria = """\
Body Mass Index ≤ 40 kg/m^2
Age >= 18
Blood pressure of 115/75 mmHg or lower"""

print("LINES mode:")
for sentence in split_records(criteria, SplitMode.LINES, record_id="demo"):
    print(f"  [{sentence.sentence_index}] offset={sentence.char_offset:>3}  {sentence.text}")

# -- prose paragraphs ---------------------------------------------------------

paragraph = (
    "M/F ages 21-45 with a history of smoked cocaine use at least twice a "
    "week for the past six months. A normal resting 12-lead "
    "electrocardiograph (ECG) and blood pressure of less than 140/90 mmHg."
)

print("\nPARAGRAPHS mode:")
for sentence in split_records(paragraph, SplitMode.PARAGRAPHS):
    print(f"  [{sentence.sentence_index}] offset={sentence.char_offset:>3}  {sentence.text[:60]}...")

# -- token shapes --------------------------------------------------------------
# Ratios, numeric ranges, hyphenated numeric qualifiers and compound units
# each stay atomic; comparison glyphs come out as SYMBOL tokens.  A unit is a
# WORD like any other: which words are units is the knowledge base's answer.

print("\ntokens of 'blood pressure of less than 140/90 mmHg':")
for token in tokenize("blood pressure of less than 140/90 mmHg"):
    print(f"  {token.surface:<10} {token.shape.value}")

print("\ntokens of 'A normal resting 12-lead electrocardiograph (ECG)':")
for token in tokenize("A normal resting 12-lead electrocardiograph (ECG)"):
    print(f"  {token.surface:<20} {token.shape.value}")
