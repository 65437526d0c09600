"""Memory-system building blocks: LRU cache arrays, DRAM, buffers."""

from repro.memsys.cache_array import CacheArray
from repro.memsys.main_memory import MainMemory
from repro.memsys.write_buffer import WriteBuffer

__all__ = [
    "CacheArray",
    "MainMemory",
    "WriteBuffer",
]
