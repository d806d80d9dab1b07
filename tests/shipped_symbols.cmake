# Fails when a shipped library defines a symbol that belongs to a test or
# bench target: the reference pipelines, serial oracles and vector G-Interp
# forms live in szi_reference (tests/reference_pipeline.cc), and the
# retired CLI load probe lives nowhere. Names match on word boundaries, so
# ginterp_compress does not match ginterp_compress_fused_levels. Run by
# ctest as
#   cmake -DNM=<nm> -P shipped_symbols.cmake -- <library>...
set(forbidden
  cuszi_compress_unfused
  cuszi_compress_unified_book
  ginterp_compress
  ginterp_decompress
  ginterp_split_levels
  decode_chunks_reference
  histogram
  run_serve_bench)

set(libs "")
set(past_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(past_dashes)
    list(APPEND libs "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(past_dashes TRUE)
  endif()
endforeach()
if(NOT NM OR NOT libs)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -P shipped_symbols.cmake -- <library>...")
endif()

set(hits "")
foreach(lib IN LISTS libs)
  execute_process(COMMAND "${NM}" -C --defined-only "${lib}"
                  OUTPUT_VARIABLE syms ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${lib}: ${err}")
  endif()
  # Drop the archive-member lines ("histogram.cc.o:"): names match symbols,
  # not the object files that define them.
  string(REGEX REPLACE "[^\n]*\\.o:\n" "" syms "${syms}")
  foreach(name IN LISTS forbidden)
    string(REGEX MATCH "[^\n]*[^A-Za-z0-9_]${name}[^A-Za-z0-9_][^\n]*" line
           "${syms}")
    if(line)
      string(APPEND hits "  ${lib}: ${line}\n")
    endif()
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "shipped libraries define test-only symbols:\n${hits}")
endif()
list(LENGTH libs nlibs)
message(STATUS "shipped_symbols: ${nlibs} libraries define none of: ${forbidden}")
