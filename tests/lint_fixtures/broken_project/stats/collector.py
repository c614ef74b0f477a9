# Seeded defect: `lost_events` is declared but never written.
from dataclasses import dataclass


@dataclass
class MemSystemStats:
    reads: int = 0
    lost_events: int = 0
