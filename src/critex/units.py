"""Canonical spellings for clinical measurement units.

Free text writes the same unit many ways ("kg/m2", "kg per m2", "mm Hg").
The table below maps lowercase surface variants to one canonical form; the
canonical set covers the units that routinely appear in trial eligibility
text.  Knowledge-base files may extend the table with their own variants.
"""

from __future__ import annotations

# canonical form -> accepted lowercase surface variants (the canonical
# form's own lowercase spelling is always accepted)
_CANONICAL_VARIANTS: dict[str, tuple[str, ...]] = {
    "mmHg": ("mm hg", "mm/hg", "millimeters of mercury"),
    "kg/m^2": ("kg/m2", "kg per m2", "kg per m^2", "kg/m²", "kg per square meter"),
    "kg": ("kilogram", "kilograms", "kgs"),
    "g": ("gram", "grams"),
    "mg": ("milligram", "milligrams"),
    "mcg": ("microgram", "micrograms", "µg", "ug"),
    "mg/dL": ("mg per dl", "mg/100ml"),
    "mg/L": ("mg per l", "mg per liter"),
    "g/dL": ("g per dl",),
    "g/L": ("g per l",),
    "ng/mL": ("ng per ml",),
    "mcg/mL": ("µg/ml", "ug/ml", "mcg per ml"),
    "mmol/L": ("mmol per l", "millimoles per liter"),
    "mol/L": ("mol per l",),
    "mEq/L": ("meq per l",),
    "IU/L": ("iu per l",),
    "U/L": ("u per l", "units per liter"),
    "%": ("percent", "per cent", "pct"),
    "bpm": ("beats per minute", "beats/min", "beats/minute"),
    "mL": ("milliliter", "milliliters", "cc"),
    "L": ("liter", "liters", "litre", "litres"),
    "mL/min": ("ml per min", "ml per minute"),
    "cm": ("centimeter", "centimeters"),
    "mm": ("millimeter", "millimeters"),
    "m": ("meter", "meters"),
    "day": ("days", "d"),
    "week": ("weeks", "wk", "wks"),
    "month": ("months", "mo", "mos"),
    "year": ("years", "yr", "yrs"),
    "hour": ("hours", "hr", "hrs", "h"),
    "minute": ("minutes", "min", "mins"),
}


def unit_key(surface: str) -> str:
    """The lookup key of a unit spelling: whitespace collapsed, lowercased.

    Every unit table key and every lookup goes through this one rule.
    """

    return " ".join(surface.split()).lower()


def _build_table() -> dict[str, str]:
    table: dict[str, str] = {}
    for canonical, variants in _CANONICAL_VARIANTS.items():
        table[unit_key(canonical)] = canonical
        for variant in variants:
            table[unit_key(variant)] = canonical
    return table


DEFAULT_UNIT_TABLE: dict[str, str] = _build_table()


def normalize_unit(surface: str) -> str | None:
    """Map a unit surface form to its canonical spelling in the built-in table.

    Returns ``None`` when the surface is not a known unit.  A loaded
    knowledge base's own table is consulted through
    ``KnowledgeBase.normalize_unit``.
    """

    return DEFAULT_UNIT_TABLE.get(unit_key(surface))
