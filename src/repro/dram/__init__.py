"""DRAM device-model substrate.

This package models the parts of a DDR4 memory system that the paper's
FPGA-based infrastructure talks to: the hierarchical organization
(module -> chip -> bank -> row -> cell), per-vendor logical-to-physical row
remapping, true-/anti-cell layout, data patterns, retention behaviour,
on-die ECC, and the per-module chip profiles for the 14 DIMMs of Table 1/2.
"""

from repro.dram.topology import BankGeometry, ModuleOrganization
from repro.dram.datapattern import DataPattern, CHECKERBOARD, CHECKERBOARD_INVERTED
from repro.dram.mapping import (
    RowMapping,
    IdentityMapping,
    XorScrambleMapping,
    vendor_mapping,
)
from repro.dram.bank import Bank
from repro.dram.chip import Chip
from repro.dram.module import Module
from repro.dram.profiles import (
    ModuleProfile,
    MODULE_PROFILES,
    get_profile,
    profiles_by_manufacturer,
    MANUFACTURERS,
)

__all__ = [
    "BankGeometry",
    "ModuleOrganization",
    "DataPattern",
    "CHECKERBOARD",
    "CHECKERBOARD_INVERTED",
    "RowMapping",
    "IdentityMapping",
    "XorScrambleMapping",
    "vendor_mapping",
    "Bank",
    "Chip",
    "Module",
    "ModuleProfile",
    "MODULE_PROFILES",
    "get_profile",
    "profiles_by_manufacturer",
    "MANUFACTURERS",
]
