"""The knowledge base: constraints, lookup, compatibility, building, mining.

Each entry pairs a concept with the units, numeric shape and plausible
range its values normally take.  Units carry the most weight: a value
written as "140/90 mmHg" is strong evidence for blood pressure even
though trial values often sit outside normal ranges.
"""

from critex import (
    AttributeKind,
    AttributeMention,
    KbEntry,
    KnowledgeBase,
    SplitMode,
    attribute_shape,
    bundled_kb_path,
    compatibility_terms,
    load_kb,
    mine_kb_candidates,
    split_records,
)

kb = load_kb(bundled_kb_path())
print(f"bundled knowledge base: {len(kb.entries)} entries")

# -- case-insensitive term lookup ---------------------------------------------
# Each hit is an entry plus the term of it that fired.

for phrase in ("Blood Pressure", "SSRIs", "ecg", "xyzzy"):
    hits = kb.lookup_terms(phrase)
    shown = ", ".join(
        f"{e.preferred_term} [{e.concept_id}] via {term!r}" for e, term in hits
    ) or "(no match)"
    print(f"  kb.lookup_terms({phrase!r:<18}) -> {shown}")

# -- unit normalization ---------------------------------------------------------
# The KB's table: the built-in spellings plus any the KB file adds.

print("\nunit surface variants fold to one canonical form:")
for surface in ("kg/m2", "kg per m2", "mm Hg", "banana"):
    print(f"  {surface!r:<12} -> {kb.normalize_unit(surface)!r}")

# -- compatibility scoring ------------------------------------------------------
# "115/75 mmHg" fits blood pressure on all three terms; "11-25" fits none.

((bp, _),) = kb.lookup_terms("blood pressure")
ratio = AttributeMention(0, 0, 11, "115/75 mmHg", AttributeKind.RATIO,
                         values=(115, 75), unit="mmHg")
bare = AttributeMention(0, 0, 5, "11-25", AttributeKind.RANGE, values=(11, 25))

for attribute in (ratio, bare):
    shape = attribute_shape(attribute)
    value, unit, pattern, range_ = compatibility_terms(bp, attribute, shape)
    print(f"\n  blood pressure vs {attribute.surface!r}: value={value:.3f}")
    print(f"    unit={unit}, pattern={pattern}, range={range_}")

# -- building a knowledge base ----------------------------------------------------
# KnowledgeBase(entries, units) is the one constructor, and its two arguments
# are its fields.  It spells each expected unit canonically and derives the
# term lookup from the entries; _replace builds through it too.

local = KnowledgeBase(
    [KbEntry("LOCAL:icp", "intracranial pressure", expected_units=("Torr", "mm Hg"))],
    units={"Torr": "mmHg"},
)
(icp,) = local.entries
print("\nKnowledgeBase(entries, units={'Torr': 'mmHg'}):")
print(f"  expected_units={list(icp.expected_units)}, units={local.units}")
print(f"  'torr' -> {local.normalize_unit('torr')!r}")
swapped = kb._replace(entries=local.entries)
for phrase in ("intracranial pressure", "blood pressure"):
    print(f"  kb._replace(entries=...).lookup_terms({phrase!r}) -> "
          f"{[e.concept_id for e, _ in swapped.lookup_terms(phrase)]}")

# -- candidate mining ------------------------------------------------------------
# "<noun phrase> <connector> <number> [unit]" patterns become curated-entry
# candidates; the output is for human review, never loaded automatically.

text = "Body Mass Index ≤ 40 kg/m^2. Blood pressure of less than 140/90 mmHg."
sentences = split_records(text, SplitMode.PARAGRAPHS)
print("\nmined candidates:")
for candidate in mine_kb_candidates(sentences):
    print(f"  {candidate.concept_id}: units={list(candidate.expected_units)} "
          f"pattern={candidate.value_pattern.value}")
