#pragma once
/// \file alloc_count.hpp
/// Global allocation counter. alloc_count.cpp replaces the global operator
/// new family with counting versions; link it into exactly one binary
/// target. Forked shard workers inherit the counter, which is how
/// ShardedFleet reports per-worker allocations.

#include <cstddef>

namespace perfbench {

/// Heap allocations made by this process so far.
std::size_t alloc_count();

}  // namespace perfbench
