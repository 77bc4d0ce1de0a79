# CPU-feature build infrastructure for the min-plus kernel tiers
# (DESIGN.md §9). Each SIMD backend lives in its own translation unit under
# src/index/kernels/ and is compiled with a per-file -m<isa> flag; the rest
# of the project keeps the baseline ISA, so one binary still runs on any
# x86-64 machine and the right tier is chosen at runtime from cpuid.
#
# Per tier this module probes whether the compiler accepts the tier's flag
# (check_cxx_compiler_flag, skipped off x86-64) and, when it does, sets
# IFLS_KERNEL_TIER_<TIER> and defines the project-wide IFLS_HAVE_<TIER>
# guard that kernel_table.h / dispatch.cc key their declarations and
# choose-best ladder on. src/CMakeLists.txt consumes IFLS_KERNEL_TIER_<TIER>
# to add each minplus_<tier>.cc with its IFLS_KERNEL_TIER_<TIER>_FLAGS.
#
# The scalar reference backend has no entry here: it is always compiled,
# with no extra flags, and is the guaranteed fallback on every platform.

include(CheckCXXCompilerFlag)

if(CMAKE_SYSTEM_PROCESSOR MATCHES "^(x86_64|amd64|AMD64)$")
  set(IFLS_KERNEL_X86_64 TRUE)
else()
  set(IFLS_KERNEL_X86_64 FALSE)
endif()

# ifls_probe_kernel_tier(<TIER> <flag>): sets IFLS_KERNEL_TIER_<TIER> and
# IFLS_KERNEL_TIER_<TIER>_FLAGS, and defines IFLS_HAVE_<TIER> when the host
# is x86-64 and the compiler accepts <flag>.
function(ifls_probe_kernel_tier tier flag)
  set(IFLS_KERNEL_TIER_${tier} FALSE PARENT_SCOPE)
  if(NOT IFLS_KERNEL_X86_64)
    message(STATUS "ifls kernels: ${tier} tier skipped (non-x86-64 target "
                   "'${CMAKE_SYSTEM_PROCESSOR}')")
    return()
  endif()
  check_cxx_compiler_flag("${flag}" IFLS_COMPILER_HAS_${tier})
  if(NOT IFLS_COMPILER_HAS_${tier})
    message(STATUS "ifls kernels: ${tier} tier skipped (compiler rejects ${flag})")
    return()
  endif()
  set(IFLS_KERNEL_TIER_${tier} TRUE PARENT_SCOPE)
  set(IFLS_KERNEL_TIER_${tier}_FLAGS "${flag}" PARENT_SCOPE)
  add_compile_definitions(IFLS_HAVE_${tier})
  message(STATUS "ifls kernels: ${tier} tier enabled (${flag})")
endfunction()

ifls_probe_kernel_tier(AVX2 "-mavx2")
ifls_probe_kernel_tier(AVX512F "-mavx512f")
