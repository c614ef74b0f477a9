"""Memory controller: address mapping, scheduling, and the prefetch buffers.

The controller is the paper's locus of intelligence: it maps physical
addresses onto channels/DIMMs/banks (Section 3.2's interleaving schemes),
reorders pending requests (hit-first, reads before writes), and holds the
prefetch information table that mirrors the contents of every AMB cache
(:class:`PrefetchBuffer`, which also models a controller-side buffer).
"""

from repro.controller.mapping import AddressMapper, MappedAddress
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.controller.prefetch_table import PrefetchTable
from repro.controller.prefetch_buffer import PrefetchBuffer
from repro.controller.controller import MemoryController

__all__ = [
    "AddressMapper",
    "MappedAddress",
    "MemoryRequest",
    "RequestKind",
    "PrefetchTable",
    "PrefetchBuffer",
    "MemoryController",
]
