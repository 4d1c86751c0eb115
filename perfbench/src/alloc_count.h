// Heap-allocation counter for the benchmark binary.
//
// alloc_count.cc replaces the global operator new family, so every heap
// allocation the process makes through C++ new (containers, std::function,
// shared buffers) bumps one counter.  workloads.cc reads it before and after
// the measured run.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through global operator new since the process started.
std::uint64_t AllocCount();

}  // namespace perfbench
