// Live-heap accounting for the benchmark program.
//
// heap.cpp replaces the global operator new and delete of the program with
// versions that keep a count of the bytes allocated and not yet freed (as
// malloc_usable_size reports them) and its high-water mark. Unlike the
// process's peak resident set, which only ever grows, the mark can be reset,
// so each episode gets a peak of its own.
#pragma once

#include <cstddef>

namespace perfbench {

/// Bytes allocated through operator new and not yet freed.
std::size_t heap_live_bytes();

/// Highest heap_live_bytes() since the last reset_heap_peak().
std::size_t heap_peak_bytes();

/// Starts a new high-water mark at the current live bytes.
void reset_heap_peak();

}  // namespace perfbench
