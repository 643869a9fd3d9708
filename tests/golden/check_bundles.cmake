# Golden check for every benchmark's HALO/HDS artifact bundles (ctest:
# golden_bundles; wired up in the top-level CMakeLists.txt).
#
# golden_matrix_json pins every simulated counter, but a bundle byte that
# moves no counter -- an affinity edge weight, a stream's heat -- would
# pass it. This check populates an empty store with the 22 test-scale
# bundles (HDS and HALO for each of the 11 benchmarks) and compares each
# entry's file name (its key), size and SHA-256 with the golden listing,
# one "<file> <size> <sha256>" line per entry, sorted by file name.
#
# Invoked as:
#   cmake -DHALO_CLI=<path> -DGOLDEN=<path> -DWORK_DIR=<dir> -P this_file

cmake_minimum_required(VERSION 3.16) # if(... IN_LIST ...) below.

foreach(Var HALO_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_bundles.cmake needs -D${Var}=...")
  endif()
endforeach()

set(Store ${WORK_DIR}/bundles_store)
file(REMOVE_RECURSE ${Store})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${HALO_CLI} experiments --scale test
                        --kinds hds,halo --trials 1 --store-dir ${Store}
                        --out ${WORK_DIR}/bundles.json
                OUTPUT_FILE ${WORK_DIR}/bundles.log
                RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli experiments failed (exit ${Rc}); see "
                      "${WORK_DIR}/bundles.log")
endif()

file(GLOB Entries RELATIVE ${Store} ${Store}/*)
list(SORT Entries)
set(Listing "")
foreach(Entry IN LISTS Entries)
  file(SIZE ${Store}/${Entry} Size)
  file(SHA256 ${Store}/${Entry} Sha)
  string(APPEND Listing "${Entry} ${Size} ${Sha}\n")
endforeach()
file(WRITE ${WORK_DIR}/bundles.txt "${Listing}")

file(READ ${GOLDEN} Expected)
if(NOT Listing STREQUAL Expected)
  string(REPLACE "\n" ";" Got "${Listing}")
  string(REPLACE "\n" ";" Want "${Expected}")
  foreach(Line IN LISTS Want)
    if(Line AND NOT Line IN_LIST Got)
      message(STATUS "missing or changed: ${Line}")
    endif()
  endforeach()
  foreach(Line IN LISTS Got)
    if(Line AND NOT Line IN_LIST Want)
      message(STATUS "unexpected: ${Line}")
    endif()
  endforeach()
  message(FATAL_ERROR
          "the store's bundles differ from ${GOLDEN} (listing written to "
          "${WORK_DIR}/bundles.txt); keys and bundle bytes must stay "
          "byte-identical unless StoreSchemaVersion moves")
endif()

message(STATUS "every bundle in ${Store} matches the committed golden ${GOLDEN}")
